package osmodel

// Page retirement and data migration (§3.1): when a frame keeps producing
// uncorrectable errors — the signature of a hard fault — the OS remaps its
// virtual page to a spare frame and migrates the data, so the application
// stops being interrupted by the same dying cells.

// DefaultRetireThreshold is the number of uncorrectable-error events on one
// frame after which it is retired.
const DefaultRetireThreshold = 3

// RetireInfo records one retirement event.
type RetireInfo struct {
	VPage              uint64
	OldFrame, NewFrame uint64
	MovedFaults        int
}

// noteFrameError bumps a frame's error count and retires it past the
// threshold. Called from the interrupt handler.
func (o *OS) noteFrameError(paddr uint64) {
	if o.RetireThreshold <= 0 {
		return
	}
	frame := (paddr - physBase) / PageSize
	o.frameErrs[frame]++
	if o.frameErrs[frame] >= o.RetireThreshold {
		o.retireFrame(frame)
	}
}

// retireFrame remaps the frame's virtual page onto a fresh spare frame,
// migrates residual fault state with the data, and re-establishes the ECC
// scheme of the owning allocation on the new frame.
func (o *OS) retireFrame(frame uint64) {
	vpage, ok := o.frmToPage[frame]
	if !ok {
		return
	}
	newFrame := o.nextFrame
	o.nextFrame++
	o.pageToFrm[vpage] = newFrame
	delete(o.frmToPage, frame)
	o.frmToPage[newFrame] = vpage
	delete(o.frameErrs, frame)
	o.retired = append(o.retired, frame)
	// TLB shootdown: cached translations for this page are now stale.
	if o.OnRemap != nil {
		o.OnRemap(vpage)
	}

	// Data migration: corrupted bits travel with the copy.
	oldBase := physBase + frame*PageSize
	newBase := physBase + newFrame*PageSize
	moved := 0
	for _, line := range o.Ctl.FaultsInRange(oldBase, PageSize) {
		o.Ctl.MoveFault(line, newBase+(line-oldBase))
		moved++
	}

	info := RetireInfo{VPage: vpage, OldFrame: frame, NewFrame: newFrame, MovedFaults: moved}
	o.retirements = append(o.retirements, info)
	o.stats.PagesRetired++

	// The new frame sits outside the allocation's contiguous MC region; if
	// the owner runs relaxed ECC, program a register for it (falling back
	// silently to the default strong scheme when registers are exhausted —
	// protection can only get stronger).
	if a, ok := o.AllocationAt(vpage * PageSize); ok && a.regIdx >= 0 && a.Scheme != o.Ctl.DefaultScheme() {
		if idx, err := o.Ctl.SetRegion(newBase, PageSize, a.Scheme); err == nil {
			a.extraRegs = append(a.extraRegs, idx)
		}
	}
}

// Retirements returns the retirement log.
func (o *OS) Retirements() []RetireInfo { return o.retirements }

// RetiredFrames returns the physical frames taken out of service.
func (o *OS) RetiredFrames() []uint64 { return o.retired }

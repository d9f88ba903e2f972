// Package osmodel implements the system-software support of §3.2.1: the
// three ECC control APIs (malloc_ecc / free_ecc / assign_ecc), virtual-to-
// physical page mapping with contiguous physical allocation, the
// ECC-error interrupt handler that derives physical addresses from MC fault
// sites, the sysfs-like channel that exposes corrupted virtual addresses to
// ABFT, and the panic-mode fallback for errors outside ABFT protection.
package osmodel

import (
	"errors"
	"fmt"

	"coopabft/internal/ecc"
	"coopabft/internal/memctrl"
	"coopabft/internal/trace"
)

// PageSize is the page-frame size.
const PageSize = trace.PageSize

// physBase separates the physical address space from the virtual one so
// that mixing them up is detected immediately.
const physBase = 1 << 40

// ErrNotMapped is returned when translating an unmapped address.
var ErrNotMapped = errors.New("osmodel: address not mapped")

// Allocation describes one malloc_ecc (or plain malloc) result.
type Allocation struct {
	Name   string
	Region trace.Region // virtual range, tagged for classification
	Scheme ecc.Scheme
	// regIdx is the MC ECC register backing this allocation, −1 for
	// default-protected allocations. extraRegs holds registers programmed
	// for pages retired out of the contiguous range.
	regIdx    int
	extraRegs []int
	freed     bool
}

// VBase returns the virtual base address.
func (a *Allocation) VBase() uint64 { return a.Region.Base }

// Corrupted is one entry of the kernel/user shared error list (the sysfs
// channel of §3.2.1): a corrupted location ABFT should repair.
type Corrupted struct {
	VirtAddr uint64 // virtual address of the corrupted line
	PhysLine uint64
	Alloc    *Allocation
	Cycle    uint64
}

// Stats counts OS-level resilience events.
type Stats struct {
	Interrupts     uint64
	ExposedToABFT  uint64
	Panics         uint64
	PagesAllocated uint64
	PagesRetired   uint64
}

// OS is the modeled operating system.
type OS struct {
	Ctl   *memctrl.Controller
	Space *trace.Space // virtual address space

	nextFrame uint64
	pageToFrm map[uint64]uint64 // vpage index → physical frame index
	frmToPage map[uint64]uint64
	allocs    []*Allocation

	pending  []Corrupted
	panicked bool
	panicRec []memctrl.ErrorRecord

	regRefs map[int]int // ECC register index → allocations sharing it

	// OnRemap, when set, is invoked after a page is remapped so hardware
	// translation caches (the machine's TLB) can be shot down.
	OnRemap func(vpage uint64)
	// RetireThreshold is the per-frame uncorrectable-error count that
	// triggers page retirement (0 disables retirement).
	RetireThreshold int
	frameErrs       map[uint64]int
	retired         []uint64
	retirements     []RetireInfo

	stats Stats
}

// New builds an OS over the controller and wires the interrupt line.
func New(ctl *memctrl.Controller) *OS {
	o := &OS{
		Ctl:       ctl,
		Space:     trace.NewSpace(),
		pageToFrm: make(map[uint64]uint64),
		frmToPage: make(map[uint64]uint64),
		regRefs:   make(map[int]int),
		frameErrs: make(map[uint64]int),
	}
	o.Reset()
	ctl.OnUncorr = o.HandleInterrupt
	return o
}

// Reset returns the OS to the state New built it in, over its own storage:
// an empty address space, no mapped page, no allocation, nothing pending, not
// panicked, nothing retired, zero counters, the default retirement
// threshold. It is the constructor's own body; what it carries over is
// wiring (Ctl, Space, OnRemap) and the emptied maps and slices, so a field
// added to OS is fresh after a Reset unless it is named here. The controller
// is the caller's to reset, as it was the caller's to build. Slices handed
// out earlier (PeekCorruptions, PanicRecords, Retirements, RetiredFrames)
// are overwritten by what follows.
func (o *OS) Reset() {
	o.Space.Reset()
	clear(o.pageToFrm)
	clear(o.frmToPage)
	clear(o.regRefs)
	clear(o.frameErrs)
	clear(o.allocs)
	clear(o.pending)
	*o = OS{
		Ctl:       o.Ctl,
		Space:     o.Space,
		pageToFrm: o.pageToFrm,
		frmToPage: o.frmToPage,
		allocs:    o.allocs[:0],
		pending:   o.pending[:0],
		panicRec:  o.panicRec[:0],
		regRefs:   o.regRefs,
		OnRemap:   o.OnRemap,

		RetireThreshold: DefaultRetireThreshold,
		frameErrs:       o.frameErrs,
		retired:         o.retired[:0],
		retirements:     o.retirements[:0],
	}
}

// Malloc allocates size bytes under the node's default (strong) ECC.
func (o *OS) Malloc(name string, size uint64) *Allocation {
	return o.alloc(name, size, o.Ctl.DefaultScheme(), false, false)
}

// MallocECC implements malloc_ecc: contiguous physical pages whose address
// range and scheme are programmed into the MC's ECC registers. The abft
// flag tags the region for Table 4 classification and interrupt routing.
func (o *OS) MallocECC(name string, size uint64, scheme ecc.Scheme, abft bool) (*Allocation, error) {
	a := o.alloc(name, size, scheme, abft, true)
	if a == nil {
		return nil, memctrl.ErrNoFreeRegion
	}
	return a, nil
}

func (o *OS) alloc(name string, size uint64, scheme ecc.Scheme, abft, programMC bool) *Allocation {
	region := o.Space.Alloc(name, size, abft)
	pages := region.Size / PageSize
	// Contiguous physical frames (malloc_ecc requirement).
	baseFrame := o.nextFrame
	for p := uint64(0); p < pages; p++ {
		vpage := region.Base/PageSize + p
		frame := baseFrame + p
		o.pageToFrm[vpage] = frame
		o.frmToPage[frame] = vpage
	}
	o.nextFrame += pages
	o.stats.PagesAllocated += pages

	a := &Allocation{Name: name, Region: region, Scheme: scheme, regIdx: -1}
	if programMC {
		physStart := physBase + baseFrame*PageSize
		// Merge with an adjacent same-scheme region when possible, so
		// several ABFT structures share one ECC register (§3.2.1).
		if physStart > 0 {
			if r, idx, ok := o.Ctl.RegionAt(physStart - 1); ok &&
				r.Scheme == scheme && r.Base+r.Size == physStart {
				o.Ctl.GrowRegion(idx, physStart+pages*PageSize)
				a.regIdx = idx
				o.regRefs[idx]++
				o.allocs = append(o.allocs, a)
				return a
			}
		}
		idx, err := o.Ctl.SetRegion(physStart, pages*PageSize, scheme)
		if err != nil {
			// Undo nothing: virtual space is cheap; report failure.
			return nil
		}
		a.regIdx = idx
		o.regRefs[idx] = 1
	}
	o.allocs = append(o.allocs, a)
	return a
}

// FreeECC implements free_ecc: releases the MC ECC register. (The simulated
// address space is not recycled; allocations are long-lived in these
// workloads.)
func (o *OS) FreeECC(a *Allocation) {
	if a.freed {
		panic(fmt.Sprintf("osmodel: double free of %q", a.Name))
	}
	a.freed = true
	for _, idx := range a.extraRegs {
		o.Ctl.ClearRegion(idx)
	}
	a.extraRegs = nil
	if a.regIdx >= 0 {
		o.regRefs[a.regIdx]--
		if o.regRefs[a.regIdx] <= 0 {
			o.Ctl.ClearRegion(a.regIdx)
			delete(o.regRefs, a.regIdx)
		}
		a.regIdx = -1
	}
}

// AssignECC implements assign_ecc: dynamically changes the scheme of an
// allocation made with MallocECC, including any registers covering pages
// retired out of the original contiguous range.
func (o *OS) AssignECC(a *Allocation, scheme ecc.Scheme) {
	if a.regIdx < 0 {
		panic(fmt.Sprintf("osmodel: AssignECC on %q, which was not allocated with malloc_ecc", a.Name))
	}
	a.Scheme = scheme
	o.Ctl.UpdateRegion(a.regIdx, scheme)
	for _, idx := range a.extraRegs {
		o.Ctl.UpdateRegion(idx, scheme)
	}
}

// Translate converts a virtual address to physical.
func (o *OS) Translate(vaddr uint64) (uint64, error) {
	frame, ok := o.pageToFrm[vaddr/PageSize]
	if !ok {
		return 0, ErrNotMapped
	}
	return physBase + frame*PageSize + vaddr%PageSize, nil
}

// PhysToVirt converts a physical address back to virtual — the derivation
// the interrupt handler performs.
func (o *OS) PhysToVirt(paddr uint64) (uint64, error) {
	if paddr < physBase {
		return 0, ErrNotMapped
	}
	off := paddr - physBase
	vpage, ok := o.frmToPage[off/PageSize]
	if !ok {
		return 0, ErrNotMapped
	}
	return vpage*PageSize + off%PageSize, nil
}

// AllocationAt returns the allocation owning a virtual address.
func (o *OS) AllocationAt(vaddr uint64) (*Allocation, bool) {
	for _, a := range o.allocs {
		if !a.freed && a.Region.Contains(vaddr) {
			return a, true
		}
	}
	return nil, false
}

// HandleInterrupt is the ECC-error interrupt handler: it reads the fault
// site from the (conceptually memory-mapped) error registers, derives the
// physical address via the MC address-mapping scheme, maps it to a virtual
// address, and either exposes it to ABFT through the shared memory list or
// enters panic mode.
func (o *OS) HandleInterrupt(rec memctrl.ErrorRecord) {
	o.stats.Interrupts++
	// Derive the physical address from the DRAM fault site, as the kernel
	// module of §3.2.1 would; the register's cached PhysLine cross-checks
	// the derivation.
	derived := o.Ctl.Mem.Config().UnmapLocation(rec.Location)
	if derived != rec.PhysLine {
		panic(fmt.Sprintf("osmodel: fault-site derivation mismatch: %#x vs %#x", derived, rec.PhysLine))
	}
	vaddr, err := o.PhysToVirt(derived)
	if err != nil {
		o.enterPanic(rec)
		return
	}
	// Track hard-fault symptoms after translation: retirement remaps the
	// page, so the derivation above must use the pre-retirement mapping.
	o.noteFrameError(derived)
	a, ok := o.AllocationAt(vaddr)
	if !ok || !a.Region.ABFT {
		o.enterPanic(rec)
		return
	}
	o.pending = append(o.pending, Corrupted{
		VirtAddr: vaddr,
		PhysLine: derived,
		Alloc:    a,
		Cycle:    rec.Cycle,
	})
	o.stats.ExposedToABFT++
}

func (o *OS) enterPanic(rec memctrl.ErrorRecord) {
	o.panicked = true
	o.panicRec = append(o.panicRec, rec)
	o.stats.Panics++
}

// PendingCorruptions drains the shared error list — ABFT's simplified
// verification reads this instead of recomputing checksums.
func (o *OS) PendingCorruptions() []Corrupted {
	out := o.pending
	o.pending = nil
	return out
}

// PeekCorruptions returns the list without draining it.
func (o *OS) PeekCorruptions() []Corrupted { return o.pending }

// Panicked reports whether an unprotected uncorrectable error occurred; a
// real system would now restart from its last checkpoint.
func (o *OS) Panicked() bool { return o.panicked }

// PanicRecords returns the errors that caused panic mode.
func (o *OS) PanicRecords() []memctrl.ErrorRecord { return o.panicRec }

// ClearPanic resets panic mode (models the post-restart state).
func (o *OS) ClearPanic() {
	o.panicked = false
	o.panicRec = nil
}

// Stats returns OS event counters.
func (o *OS) Stats() Stats { return o.stats }

// InjectAt lets fault injectors corrupt the line containing the given
// virtual address: it translates and forwards to the MC fault table.
func (o *OS) InjectAt(vaddr uint64, p memctrl.Pattern) error {
	paddr, err := o.Translate(vaddr)
	if err != nil {
		return err
	}
	o.Ctl.InjectFault(paddr, p)
	return nil
}

// ClearFaultAt removes residual fault state on the line holding vaddr
// (called after software overwrites corrupted data).
func (o *OS) ClearFaultAt(vaddr uint64) error {
	paddr, err := o.Translate(vaddr)
	if err != nil {
		return err
	}
	o.Ctl.ClearFault(paddr)
	return nil
}

// Package memctrl implements the enhanced memory controller of §3.1: it
// resolves the ECC scheme of every request against a small set of
// software-programmable ECC address-range registers, runs the real ECC
// codecs on faulty lines, records uncorrectable-error fault sites in error
// registers, and raises an interrupt for the OS.
//
// Fault handling exploits code linearity: for a linear code, the decode
// outcome of (codeword + e) depends only on the error pattern e, so the
// controller tracks the XOR pattern injected into each line and classifies
// it with the genuine codec on a zero codeword. Corrections are written
// through to the application data via the repair callback; miscorrections
// (the codec "fixing" the wrong bit of a wide error) leave a residual
// pattern behind, exactly as real hardware would.
package memctrl

import (
	"errors"
	"fmt"

	"coopabft/internal/dram"
	"coopabft/internal/ecc"
)

// NumRegions is the number of ECC address ranges the controller supports:
// "16 ECC registers for setting 8 address ranges" (§3.2.1).
const NumRegions = 8

// NumErrorRegisters is n in §3.1: registers recording recent fault sites so
// that n/2 or more error events survive until ABFT's next examination.
const NumErrorRegisters = 6

// ErrNoFreeRegion is returned when all ECC region registers are in use.
var ErrNoFreeRegion = errors.New("memctrl: all ECC region registers in use")

// Region is one programmed ECC address range.
type Region struct {
	Base, Size uint64
	Scheme     ecc.Scheme
	valid      bool
}

func (r Region) contains(addr uint64) bool {
	return r.valid && addr >= r.Base && addr < r.Base+r.Size
}

// Pattern is the XOR error pattern of one 64-byte line and its redundancy.
type Pattern struct {
	Data  [64]byte
	Check [8]byte
}

// IsZero reports whether no error bits remain.
func (p *Pattern) IsZero() bool {
	for _, b := range p.Data {
		if b != 0 {
			return false
		}
	}
	for _, b := range p.Check {
		if b != 0 {
			return false
		}
	}
	return true
}

// ErrorRecord is the content of one error register: the located fault site
// of an ECC-uncorrectable error.
type ErrorRecord struct {
	PhysLine uint64 // line-aligned physical address
	Location dram.Location
	Cycle    uint64
	Scheme   ecc.Scheme
}

// Stats counts controller-level ECC events.
type Stats struct {
	CorrectedErrors     uint64
	UncorrectableErrors uint64
	SilentMiscorrects   uint64
	SilentPassthrough   uint64 // faulty lines read under no-ECC
	ECCEnergyJ          float64
}

// Controller is the enhanced memory controller.
type Controller struct {
	Mem *dram.System

	defaultScheme ecc.Scheme
	regions       [NumRegions]Region

	faults map[uint64]*Pattern // physical line address → residual pattern

	// Policy, when set, overrides per-access scheme resolution — used by
	// the DGMS baseline, whose hardware predictor (not software region
	// registers) picks the protection granularity.
	Policy func(addr uint64) (ecc.Scheme, bool)

	errRegs  []ErrorRecord
	dropped  uint64 // uncorrectable records lost to register overflow
	OnUncorr func(rec ErrorRecord)
	// OnRepair is invoked when hardware corrects bits in a line so the
	// simulated application data can be restored; diff is the XOR mask the
	// controller applied.
	OnRepair func(physLine uint64, diff [64]byte)

	stats Stats
}

// New builds a controller over mem with the given default (strong) scheme.
func New(mem *dram.System, defaultScheme ecc.Scheme) *Controller {
	c := &Controller{Mem: mem, faults: make(map[uint64]*Pattern)}
	c.Reset(defaultScheme)
	return c
}

// Reset returns the controller to the state New(c.Mem, defaultScheme) built
// it in, over its own storage: no programmed region, an empty fault table,
// empty error registers, zero counters. It is the constructor's own body;
// what it carries over is wiring (Mem, Policy, OnUncorr, OnRepair) and the
// emptied fault map and register slice, so a field added to Controller is
// fresh after a Reset unless it is named here. Mem itself is not reset: a
// functional machine never drives its timing model.
func (c *Controller) Reset(defaultScheme ecc.Scheme) {
	clear(c.faults)
	*c = Controller{
		Mem:           c.Mem,
		defaultScheme: defaultScheme,
		faults:        c.faults,
		Policy:        c.Policy,
		errRegs:       c.errRegs[:0],
		OnUncorr:      c.OnUncorr,
		OnRepair:      c.OnRepair,
	}
}

// DefaultScheme returns the scheme applied outside all programmed regions.
func (c *Controller) DefaultScheme() ecc.Scheme { return c.defaultScheme }

// SetRegion programs a free ECC region register pair with [base, base+size)
// → scheme and returns the register index.
func (c *Controller) SetRegion(base, size uint64, scheme ecc.Scheme) (int, error) {
	for i := range c.regions {
		if !c.regions[i].valid {
			c.regions[i] = Region{Base: base, Size: size, Scheme: scheme, valid: true}
			return i, nil
		}
	}
	return -1, ErrNoFreeRegion
}

// GrowRegion extends register idx to cover [Base, newEnd) — used when the
// OS merges adjacent same-scheme allocations into one register (§3.2.1:
// "their address ranges may be combined to use the same ECC registers").
func (c *Controller) GrowRegion(idx int, newEnd uint64) {
	if idx < 0 || idx >= NumRegions || !c.regions[idx].valid {
		panic(fmt.Sprintf("memctrl: GrowRegion(%d) on invalid register", idx))
	}
	r := &c.regions[idx]
	if newEnd <= r.Base+r.Size {
		return
	}
	r.Size = newEnd - r.Base
}

// RegionAt returns the programmed region covering addr and its register
// index, if any.
func (c *Controller) RegionAt(addr uint64) (Region, int, bool) {
	for i, r := range c.regions {
		if r.contains(addr) {
			return r, i, true
		}
	}
	return Region{}, -1, false
}

// UpdateRegion reprograms the scheme of register idx (assign_ecc).
func (c *Controller) UpdateRegion(idx int, scheme ecc.Scheme) {
	if idx < 0 || idx >= NumRegions || !c.regions[idx].valid {
		panic(fmt.Sprintf("memctrl: UpdateRegion(%d) on invalid register", idx))
	}
	c.regions[idx].Scheme = scheme
}

// ClearRegion frees register idx: the controller half of §3.2.1's
// free_ecc, reached through osmodel.OS.FreeECC. No experiment frees an
// allocation, so no program calls it.
func (c *Controller) ClearRegion(idx int) {
	if idx < 0 || idx >= NumRegions {
		panic(fmt.Sprintf("memctrl: ClearRegion(%d) out of range", idx))
	}
	c.regions[idx] = Region{}
}

// Regions returns the currently programmed regions (valid entries only).
func (c *Controller) Regions() []Region {
	var out []Region
	for _, r := range c.regions {
		if r.valid {
			out = append(out, r)
		}
	}
	return out
}

// SchemeFor resolves the ECC scheme protecting addr.
func (c *Controller) SchemeFor(addr uint64) ecc.Scheme {
	if c.Policy != nil {
		if s, ok := c.Policy(addr); ok {
			return s
		}
	}
	for _, r := range c.regions {
		if r.contains(addr) {
			return r.Scheme
		}
	}
	return c.defaultScheme
}

// InjectFault XORs an error pattern into the stored line containing addr.
// Called by the fault injector; app-visible corruption is the injector's
// responsibility.
func (c *Controller) InjectFault(addr uint64, p Pattern) {
	line := addr &^ 63
	cur, ok := c.faults[line]
	if !ok {
		cp := p
		c.faults[line] = &cp
		return
	}
	for i := range cur.Data {
		cur.Data[i] ^= p.Data[i]
	}
	for i := range cur.Check {
		cur.Check[i] ^= p.Check[i]
	}
	if cur.IsZero() {
		delete(c.faults, line)
	}
}

// FaultsInRange returns the line addresses with residual patterns inside
// [base, base+size) — used by the OS when retiring a page.
func (c *Controller) FaultsInRange(base, size uint64) []uint64 {
	var out []uint64
	for line := range c.faults {
		if line >= base && line < base+size {
			out = append(out, line)
		}
	}
	return out
}

// MoveFault relocates a line's residual pattern to a new physical address —
// the data-migration path of page retirement: corrupted bits travel with
// the copied data.
func (c *Controller) MoveFault(oldAddr, newAddr uint64) {
	oldLine := oldAddr &^ 63
	p, ok := c.faults[oldLine]
	if !ok {
		return
	}
	delete(c.faults, oldLine)
	c.faults[newAddr&^63] = p
}

// ClearFault removes any residual pattern on addr's line — used when
// software (ABFT) overwrites the corrupted data.
func (c *Controller) ClearFault(addr uint64) {
	delete(c.faults, addr&^63)
}

// FaultyLines returns the number of lines with residual error patterns.
func (c *Controller) FaultyLines() int { return len(c.faults) }

// Access services one cacheline request: timing/energy via the DRAM model,
// then — for demand reads — ECC detection and correction.
func (c *Controller) Access(now uint64, addr uint64, write bool, demand bool) dram.AccessResult {
	scheme := c.SchemeFor(addr)
	res := c.Mem.Access(now, addr, write, scheme)
	if !write && demand {
		c.demandCheck(addr, scheme, res.Complete)
	}
	return res
}

// DemandRead is the ECC half of a demand-read Access with the DRAM
// timing/energy model left out: the path of a functional machine, which
// needs the controller's verdict on the fetched line and no cycle count
// (error records carry cycle 0).
func (c *Controller) DemandRead(addr uint64) {
	c.demandCheck(addr, c.SchemeFor(addr), 0)
}

func (c *Controller) demandCheck(addr uint64, scheme ecc.Scheme, cycle uint64) {
	c.checkECC(addr, scheme, cycle)
	// A chipkill access also returns (and therefore checks) the companion
	// line of the lock-stepped pair.
	if scheme == ecc.Chipkill {
		comp := c.Mem.Config().CompanionLine(addr)
		c.checkECC(comp, c.SchemeFor(comp), cycle)
	}
}

// checkECC runs the scheme's codec against the line's residual pattern.
func (c *Controller) checkECC(addr uint64, scheme ecc.Scheme, cycle uint64) {
	line := addr &^ 63
	p, ok := c.faults[line]
	if !ok {
		return
	}
	if scheme == ecc.None {
		// No ECC: corruption flows to software unobserved.
		c.stats.SilentPassthrough++
		return
	}
	result, residual := classify(scheme, p)
	switch result {
	case ecc.Corrected:
		diff := xorDiff(p, residual)
		c.repair(line, diff, residual)
		c.stats.CorrectedErrors++
		c.stats.ECCEnergyJ += scheme.CorrectionEnergyJ()
	case ecc.Undetected:
		// The codec "corrected" the wrong bits: write the miscorrection
		// through and keep the residual pattern as silent corruption.
		diff := xorDiff(p, residual)
		c.repair(line, diff, residual)
		c.stats.SilentMiscorrects++
		c.stats.ECCEnergyJ += scheme.CorrectionEnergyJ()
	case ecc.Detected:
		c.stats.UncorrectableErrors++
		rec := ErrorRecord{
			PhysLine: line,
			Location: c.Mem.Config().MapAddress(line),
			Cycle:    cycle,
			Scheme:   scheme,
		}
		c.pushErrorRecord(rec)
		if c.OnUncorr != nil {
			c.OnUncorr(rec)
		}
	}
}

// repair applies the hardware correction: update the fault table and let
// the owner patch application data.
func (c *Controller) repair(line uint64, diff Pattern, residual Pattern) {
	if residual.IsZero() {
		delete(c.faults, line)
	} else {
		r := residual
		c.faults[line] = &r
	}
	if c.OnRepair != nil {
		c.OnRepair(line, diff.Data)
	}
}

// classify runs the real codec over the pattern on a zero codeword and
// returns the overall outcome plus the residual error pattern after any
// corrections the codec applied. A "Corrected" verdict with a nonzero
// residual in some codeword means the hardware miscorrected.
func classify(scheme ecc.Scheme, p *Pattern) (ecc.Result, Pattern) {
	var residual Pattern
	residual = *p
	switch scheme {
	case ecc.SECDED:
		worst := ecc.OK
		anyMiscorrect := false
		for w := 0; w < 8; w++ {
			var word uint64
			for b := 0; b < 8; b++ {
				word |= uint64(p.Data[w*8+b]) << (8 * b)
			}
			chk := p.Check[w]
			if word == 0 && chk == 0 {
				continue
			}
			fixed, fixedChk, r := ecc.SECDEDDecode(word, chk)
			if r == ecc.Corrected {
				// Residual after the codec's fix.
				for b := 0; b < 8; b++ {
					residual.Data[w*8+b] = byte(fixed >> (8 * b))
				}
				residual.Check[w] = fixedChk
				if fixed != 0 || fixedChk != 0 {
					anyMiscorrect = true
				}
			}
			if r > worst {
				worst = r
			}
		}
		if worst == ecc.Corrected && anyMiscorrect {
			return ecc.Undetected, residual
		}
		return worst, residual
	case ecc.Chipkill:
		worst := ecc.OK
		anyMiscorrect := false
		for h := 0; h < 2; h++ {
			var data [ecc.ChipkillData]byte
			var chk [ecc.ChipkillCheck]byte
			copy(data[:], p.Data[h*32:(h+1)*32])
			copy(chk[:], p.Check[h*4:(h+1)*4])
			if allZero(data[:]) && allZero(chk[:]) {
				continue
			}
			r, _ := ecc.ChipkillDecode(&data, &chk)
			if r == ecc.Corrected {
				copy(residual.Data[h*32:(h+1)*32], data[:])
				copy(residual.Check[h*4:(h+1)*4], chk[:])
				if !allZero(data[:]) || !allZero(chk[:]) {
					anyMiscorrect = true
				}
			}
			if r > worst {
				worst = r
			}
		}
		if worst == ecc.Corrected && anyMiscorrect {
			return ecc.Undetected, residual
		}
		return worst, residual
	default:
		return ecc.OK, residual
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// xorDiff returns before XOR after — the bits the codec flipped in the
// stored line.
func xorDiff(before *Pattern, after Pattern) Pattern {
	var d Pattern
	for i := range d.Data {
		d.Data[i] = before.Data[i] ^ after.Data[i]
	}
	for i := range d.Check {
		d.Check[i] = before.Check[i] ^ after.Check[i]
	}
	return d
}

// pushErrorRecord appends to the error registers, evicting the oldest when
// all n are full (new errors can flush old ones, §3.1).
func (c *Controller) pushErrorRecord(rec ErrorRecord) {
	if len(c.errRegs) == NumErrorRegisters {
		copy(c.errRegs, c.errRegs[1:])
		c.errRegs = c.errRegs[:NumErrorRegisters-1]
		c.dropped++
	}
	c.errRegs = append(c.errRegs, rec)
}

// ReadErrorRegisters returns the recorded fault sites and clears them: the
// OS's memory-mapped read of §3.1's n error registers. The simulated OS
// takes the records through the OnUncorr interrupt instead, so no program
// calls it.
func (c *Controller) ReadErrorRegisters() []ErrorRecord {
	out := make([]ErrorRecord, len(c.errRegs))
	copy(out, c.errRegs)
	c.errRegs = c.errRegs[:0]
	return out
}

// DroppedRecords returns how many uncorrectable-error records were lost to
// error-register overflow.
func (c *Controller) DroppedRecords() uint64 { return c.dropped }

// Stats returns the ECC event counters.
func (c *Controller) Stats() Stats { return c.stats }

// Package dram models the main memory system of the evaluation platform —
// the DRAMSim2 substitute. It implements the Table 3 organization (4
// channels, 2 DIMMs/channel, 4 ranks/DIMM, 8 banks/rank, DDR3-style x4
// devices, open-page row-buffer policy), a command-level timing model, and a
// Micron TN-41-01-style counting power model.
//
// The ECC scheme of each access changes its physical footprint exactly as
// §2.2/§3.1 describe: SECDED uses one 72-bit channel (18 chips), chipkill
// lock-steps a channel pair (36 chips) and transfers two adjacent cachelines
// per access (forced prefetch), and no-ECC leaves the 2 ECC chips of the
// channel idle (16 chips). Absolute joules are model outputs calibrated to
// DDR3 datasheet magnitudes; the experiments rely on relative comparisons.
package dram

import (
	"fmt"

	"coopabft/internal/ecc"
)

// LineBytes is the cacheline/transfer granularity.
const LineBytes = 64

// Config describes geometry, timing (in CPU cycles) and energy constants.
type Config struct {
	Channels     int // physical 72-bit channels
	DIMMsPerChan int
	RanksPerDIMM int
	BanksPerRank int
	RowBytes     int // row-buffer size per bank, data bytes

	// CPUPerMemCycle converts DDR command timing to CPU cycles (2 GHz CPU,
	// 667 MHz memory clock → 3).
	CPUPerMemCycle int
	TRCD, TRP, TCL int // in memory cycles
	TBurst         int // memory cycles the data bus is busy per 64B line

	// Energy constants, per chip. See DESIGN.md §4 for calibration notes.
	ActEnergyPerChipJ   float64 // one activate+precharge pair
	BurstEnergyPerChipJ float64 // one 8-beat read/write burst through a chip
	WriteExtraPerChipJ  float64 // additional energy for writes
	BackgroundPowerW    float64 // standby+refresh power per chip

	// Ablation switches (normally false), used by the ablation benchmarks
	// to decompose the chipkill cost model (DESIGN.md §4).
	//
	// DisableLockstep lets a chipkill access occupy only its own channel
	// (no partner-channel ganging, no companion-line prefetch).
	DisableLockstep bool
	// DisableChipOverfetch charges a chipkill access for 18 chips instead
	// of 36 — isolating the activation-overfetch term.
	DisableChipOverfetch bool
	// ClosedPagePolicy precharges after every access: no row-buffer hits.
	ClosedPagePolicy bool
}

// DefaultConfig mirrors Table 3 of the paper.
func DefaultConfig() Config {
	return Config{
		Channels:     4,
		DIMMsPerChan: 2,
		RanksPerDIMM: 4,
		BanksPerRank: 8,
		RowBytes:     8192,

		CPUPerMemCycle: 3,
		TRCD:           10,
		TRP:            10,
		TCL:            10,
		TBurst:         4,

		// Per-chip energies include array access plus I/O and termination;
		// calibrated so a loaded channel draws a realistic fraction of the
		// modeled node power (see DESIGN.md §4).
		ActEnergyPerChipJ:   3.0e-9,
		BurstEnergyPerChipJ: 1.5e-9,
		WriteExtraPerChipJ:  0.15e-9,
		BackgroundPowerW:    8e-3,
	}
}

// ChipsPerChannel is fixed by the 72-bit x4 channel: 18 chips.
const ChipsPerChannel = 18

// TotalChips returns the number of DRAM chips in the node.
func (c Config) TotalChips() int {
	return c.Channels * c.DIMMsPerChan * c.RanksPerDIMM * ChipsPerChannel
}

// banksPerChannel returns the number of independently schedulable banks
// behind one channel.
func (c Config) banksPerChannel() int {
	return c.DIMMsPerChan * c.RanksPerDIMM * c.BanksPerRank
}

// Location is a decoded physical address.
type Location struct {
	Channel int
	Bank    int // flattened DIMM/rank/bank index within the channel
	Row     int
	Col     int // cacheline index within the row
}

// MapAddress decodes a physical address. The mapping interleaves cachelines
// across channels (pairing channels 2k/2k+1 for chipkill lock-step), keeps
// consecutive within-channel lines in the same row (open-page friendly),
// and spreads rows across banks.
func (c Config) MapAddress(addr uint64) Location {
	line := addr / LineBytes
	ch := int(line % uint64(c.Channels))
	lwc := line / uint64(c.Channels) // line index within the channel
	linesPerRow := uint64(c.RowBytes / LineBytes)
	col := int(lwc % linesPerRow)
	rb := lwc / linesPerRow
	bank := int(rb % uint64(c.banksPerChannel()))
	row := int(rb / uint64(c.banksPerChannel()))
	return Location{Channel: ch, Bank: bank, Row: row, Col: col}
}

// UnmapLocation inverts MapAddress: given a decoded fault site (the
// chip/row/column information the MC records in its error registers), it
// reconstructs the line-aligned physical address. The OS uses this — the
// paper implements it as a kernel module so the MC logic stays simple.
func (c Config) UnmapLocation(l Location) uint64 {
	linesPerRow := uint64(c.RowBytes / LineBytes)
	rb := uint64(l.Row)*uint64(c.banksPerChannel()) + uint64(l.Bank)
	lwc := rb*linesPerRow + uint64(l.Col)
	line := lwc*uint64(c.Channels) + uint64(l.Channel)
	return line * LineBytes
}

// CompanionLine returns the address of the line fetched alongside addr by a
// lock-stepped chipkill access (the same row/bank/col on the partner
// channel).
func (c Config) CompanionLine(addr uint64) uint64 {
	line := addr / LineBytes
	ch := line % uint64(c.Channels)
	partner := ch ^ 1
	return (line-ch+partner)*LineBytes + addr%LineBytes
}

// bankState tracks one bank's open row and availability.
type bankState struct {
	openRow  int // -1 when precharged
	freeAt   uint64
	everUsed bool
}

// AccessResult reports the timing and energy of one memory access.
type AccessResult struct {
	Start    uint64 // cycle the command began issuing
	Complete uint64 // cycle the critical word returned
	RowHit   bool
	EnergyJ  float64 // dynamic energy of this access
}

// Stats accumulates memory-system counters.
type Stats struct {
	Reads, Writes    uint64
	RowHits, RowMiss uint64
	Activations      uint64
	// Energy split per Figure 5: dynamic (activate + burst + ECC logic)
	// vs standby (background + refresh), the latter filled by Finalize.
	DynamicEnergyJ float64
	StandbyEnergyJ float64
	// BusyCycles sums data-bus occupancy across channels (bandwidth proxy).
	BusyCycles uint64
}

// TotalEnergyJ returns dynamic + standby energy.
func (s Stats) TotalEnergyJ() float64 { return s.DynamicEnergyJ + s.StandbyEnergyJ }

// System is the memory-system timing and energy model.
type System struct {
	cfg     Config
	banks   [][]bankState // [channel][bank]
	busFree []uint64      // per channel
	stats   Stats
}

// New builds a memory system from cfg.
func New(cfg Config) *System {
	s := &System{cfg: cfg, busFree: make([]uint64, cfg.Channels)}
	s.banks = make([][]bankState, cfg.Channels)
	for ch := range s.banks {
		s.banks[ch] = make([]bankState, cfg.banksPerChannel())
		for b := range s.banks[ch] {
			s.banks[ch][b].openRow = -1
		}
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a copy of the accumulated counters.
func (s *System) Stats() Stats { return s.stats }

// Access services one cacheline request under the given ECC scheme at CPU
// cycle now, updating bank/bus state and energy.
func (s *System) Access(now uint64, addr uint64, write bool, scheme ecc.Scheme) AccessResult {
	loc := s.cfg.MapAddress(addr)
	cpm := uint64(s.cfg.CPUPerMemCycle)

	channels := []int{loc.Channel}
	if scheme == ecc.Chipkill && !s.cfg.DisableLockstep {
		channels = append(channels, loc.Channel^1)
	}

	start := now
	for _, ch := range channels {
		if s.busFree[ch] > start {
			start = s.busFree[ch]
		}
		if b := &s.banks[ch][loc.Bank]; b.freeAt > start {
			start = b.freeAt
		}
	}

	// Row-buffer check on the primary channel's bank; a chipkill access
	// opened the same row on the partner, so the states agree.
	primary := &s.banks[loc.Channel][loc.Bank]
	rowHit := primary.openRow == loc.Row

	latency := uint64(0)
	energy := 0.0
	chips := scheme.ChipsActivated()
	if scheme == ecc.Chipkill && s.cfg.DisableChipOverfetch {
		chips = ecc.SECDED.ChipsActivated()
	}
	if !rowHit {
		if primary.openRow >= 0 {
			latency += uint64(s.cfg.TRP) * cpm
		}
		latency += uint64(s.cfg.TRCD) * cpm
		energy += float64(chips) * s.cfg.ActEnergyPerChipJ
		s.stats.Activations++
	}
	latency += uint64(s.cfg.TCL)*cpm + uint64(s.cfg.TBurst)*cpm

	energy += float64(chips) * s.cfg.BurstEnergyPerChipJ
	if write {
		energy += float64(chips) * s.cfg.WriteExtraPerChipJ
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}

	busBusy := uint64(s.cfg.TBurst) * cpm
	done := start + latency
	newRow := loc.Row
	if s.cfg.ClosedPagePolicy {
		newRow = -1 // precharge immediately; the next access re-activates
	}
	for _, ch := range channels {
		s.busFree[ch] = start + latency // bus released after the burst completes
		b := &s.banks[ch][loc.Bank]
		b.openRow = newRow
		b.freeAt = done
		b.everUsed = true
		s.stats.BusyCycles += busBusy
	}

	if rowHit {
		s.stats.RowHits++
	} else {
		s.stats.RowMiss++
	}
	s.stats.DynamicEnergyJ += energy
	return AccessResult{Start: start, Complete: done, RowHit: rowHit, EnergyJ: energy}
}

// Finalize charges background/refresh energy for a run of elapsed CPU
// cycles at the given CPU frequency and returns the final stats.
func (s *System) Finalize(elapsedCycles uint64, cpuHz float64) Stats {
	seconds := float64(elapsedCycles) / cpuHz
	s.stats.StandbyEnergyJ += seconds * s.cfg.BackgroundPowerW * float64(s.cfg.TotalChips())
	return s.stats
}

// RowHitRate returns hits/(hits+misses), 0 when idle.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMiss
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("dram.Stats{r %d, w %d, rowhit %.1f%%, dyn %.3g J, standby %.3g J}",
		s.Reads, s.Writes, 100*s.RowHitRate(), s.DynamicEnergyJ, s.StandbyEnergyJ)
}

// Package bifit is the fault-injection infrastructure of the evaluation
// platform — the BIFIT [21] substitute. It injects bit flips at chosen
// times and data locations, keeping the application's float64 storage and
// the memory controller's stored-line error patterns consistent: software
// sees numerically corrupted values exactly when (and only when) the ECC
// scheme protecting the line fails to correct them.
package bifit

import (
	"fmt"
	"math"
	"math/rand"

	"coopabft/internal/memctrl"
	"coopabft/internal/osmodel"
	"coopabft/internal/trace"
)

// Kind selects an error pattern shape.
type Kind int

const (
	// SingleBit flips one bit — correctable by SECDED and chipkill.
	SingleBit Kind = iota
	// DoubleBitSameWord flips two bits in one 64-bit word — detected but
	// uncorrectable by SECDED, correctable by chipkill when both bits land
	// in one symbol.
	DoubleBitSameWord
	// ChipFailure corrupts one whole 8-bit symbol — the chipkill-correct
	// showcase; uncorrectable garbage under SECDED.
	ChipFailure
	// Scattered flips bits in two different symbols of the same half-line
	// codeword — beyond both SECDED and chipkill (Case 2/4 of §4).
	Scattered
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SingleBit:
		return "single-bit"
	case DoubleBitSameWord:
		return "double-bit"
	case ChipFailure:
		return "chip-failure"
	case Scattered:
		return "scattered"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Target couples application storage with its virtual region.
type Target struct {
	Data []float64
	Reg  trace.Region
}

// Injector performs injections against an OS-managed machine. A nil OS
// yields a software-only injector (flips app data without MC bookkeeping),
// which is what pure-algorithm campaigns use.
type Injector struct {
	OS      *osmodel.OS
	seed    int64
	rng     *rand.Rand // built by rand() on the first draw, kept across Reset
	seeded  bool       // rng holds seed's stream
	targets []Target
	// Injections counts performed injections.
	Injections int
}

// New builds an injector with a deterministic stream.
func New(os *osmodel.OS, seed int64) *Injector {
	in := &Injector{OS: os}
	in.Reset(seed)
	return in
}

// Reset returns the injector to the state New(in.OS, seed) built it in: no
// registered target, no injection counted, the stream of seed from its
// start. It is the constructor's own body; what it carries over is the OS,
// the target slice's storage and the generator object, which the first draw
// re-seeds in place.
func (in *Injector) Reset(seed int64) {
	clear(in.targets)
	*in = Injector{OS: in.OS, seed: seed, rng: in.rng, targets: in.targets[:0]}
}

// rand returns the injector's stream, seeding it on first use: seeding
// math/rand's generator costs more than building the rest of a runtime,
// and a run that injects nothing never draws. Seeding an existing generator
// restarts it on exactly the stream rand.NewSource(seed) begins.
func (in *Injector) rand() *rand.Rand {
	if !in.seeded {
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(in.seed))
		} else {
			in.rng.Seed(in.seed)
		}
		in.seeded = true
	}
	return in.rng
}

// Register makes a target's storage reachable for hardware-repair
// write-back and random injection.
func (in *Injector) Register(t Target) { in.targets = append(in.targets, t) }

// InstallRepairHandler wires the MC's correction write-back to the
// registered application storage.
func (in *Injector) InstallRepairHandler(ctl *memctrl.Controller) {
	ctl.OnRepair = func(physLine uint64, diff [64]byte) {
		if in.OS == nil {
			return
		}
		vline, err := in.OS.PhysToVirt(physLine)
		if err != nil {
			return
		}
		in.applyLineXOR(vline, diff)
	}
}

// applyLineXOR applies an XOR mask to whatever registered storage overlaps
// the virtual line.
func (in *Injector) applyLineXOR(vline uint64, diff [64]byte) {
	for _, t := range in.targets {
		if !t.Reg.Contains(vline) {
			continue
		}
		for b := 0; b < 64; b++ {
			if diff[b] == 0 {
				continue
			}
			addr := vline + uint64(b)
			idx := int((addr - t.Reg.Base) / 8)
			if idx >= len(t.Data) {
				continue
			}
			byteInWord := int((addr - t.Reg.Base) % 8)
			bits := math.Float64bits(t.Data[idx])
			bits ^= uint64(diff[b]) << (8 * byteInWord)
			t.Data[idx] = math.Float64frombits(bits)
		}
		return
	}
}

// FlipBits corrupts bit positions (0–63) of element idx of target t,
// updating app data and — when an OS is attached — the MC fault table.
func (in *Injector) FlipBits(t Target, idx int, bits []int) error {
	if idx < 0 || idx >= len(t.Data) {
		return fmt.Errorf("bifit: element %d out of range (%d)", idx, len(t.Data))
	}
	var mask uint64
	for _, b := range bits {
		if b < 0 || b > 63 {
			return fmt.Errorf("bifit: bit %d out of range", b)
		}
		mask |= 1 << b
	}
	w := math.Float64bits(t.Data[idx]) ^ mask
	t.Data[idx] = math.Float64frombits(w)
	in.Injections++

	if in.OS == nil {
		return nil
	}
	vaddr := t.Reg.Base + uint64(idx)*8
	var p memctrl.Pattern
	off := int(vaddr % 64)
	for b := 0; b < 8; b++ {
		p.Data[off+b] = byte(mask >> (8 * b))
	}
	return in.OS.InjectAt(vaddr, p)
}

// InjectKind corrupts element idx of t with a randomly drawn pattern of the
// given kind.
func (in *Injector) InjectKind(t Target, idx int, kind Kind) error {
	switch kind {
	case SingleBit:
		return in.FlipBits(t, idx, []int{in.rand().Intn(64)})
	case DoubleBitSameWord:
		b1 := in.rand().Intn(64)
		b2 := in.rand().Intn(64)
		for b2 == b1 {
			b2 = in.rand().Intn(64)
		}
		return in.FlipBits(t, idx, []int{b1, b2})
	case ChipFailure:
		// One whole byte (symbol) of the word.
		sym := in.rand().Intn(8)
		bits := make([]int, 0, 8)
		for b := 0; b < 8; b++ {
			if in.rand().Intn(2) == 0 || b == 0 {
				bits = append(bits, sym*8+b)
			}
		}
		return in.FlipBits(t, idx, bits)
	case Scattered:
		// Two bits in different symbols; with an OS attached, spread them
		// across two elements in the same half-line codeword to defeat
		// chipkill as well.
		s1 := in.rand().Intn(8)
		s2 := in.rand().Intn(8)
		for s2 == s1 {
			s2 = in.rand().Intn(8)
		}
		if err := in.FlipBits(t, idx, []int{s1*8 + in.rand().Intn(8)}); err != nil {
			return err
		}
		// A second element on the same line if available (same 32-byte
		// half), else the same element's other symbol.
		idx2 := idx ^ 1
		if idx2 >= len(t.Data) || (t.Reg.Base+uint64(idx)*8)/32 != (t.Reg.Base+uint64(idx2)*8)/32 {
			idx2 = idx
		}
		in.Injections-- // count the pair as one injection event
		return in.FlipBits(t, idx2, []int{s2*8 + in.rand().Intn(8)})
	default:
		return fmt.Errorf("bifit: unknown kind %v", kind)
	}
}

// RandomElement picks a uniformly random element index of t.
func (in *Injector) RandomElement(t Target) int { return in.rand().Intn(len(t.Data)) }

package ecc

import "fmt"

// Scheme identifies one of the three protection levels the proposed memory
// controller supports simultaneously (§3.1).
type Scheme int

const (
	// None disables ECC: the channel's 8 ECC bits are ignored and only the
	// 16 data chips (x4) of each rank are activated.
	None Scheme = iota
	// SECDED protects each 64-bit transfer with 8 Hsiao check bits on a
	// single 72-bit channel (18 chips).
	SECDED
	// Chipkill lock-steps two 72-bit channels into a 144-bit logical
	// channel (36 chips) running the SSC-DSD symbol code.
	Chipkill
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case SECDED:
		return "secded"
	case Chipkill:
		return "chipkill"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ChipsActivated returns how many DRAM chips a cacheline access touches
// under the scheme (x4 parts, 18 chips per 72-bit channel).
func (s Scheme) ChipsActivated() int {
	switch s {
	case None:
		return 16 // ECC chips disabled
	case SECDED:
		return 18
	case Chipkill:
		return 36 // two lock-stepped channels
	default:
		return 16
	}
}

// ChannelsBusy returns how many physical channels one access occupies.
// Chipkill's lock-step halves channel-level parallelism (§2.2).
func (s Scheme) ChannelsBusy() int {
	if s == Chipkill {
		return 2
	}
	return 1
}

// StorageOverhead returns the fraction of extra DRAM storage the scheme
// needs (§2.2: 12.5% for both SECDED and 4-check-symbol x4 chipkill).
func (s Scheme) StorageOverhead() float64 {
	if s == None {
		return 0
	}
	return 0.125
}

// CorrectionEnergyJ returns the energy to correct one error with the
// scheme's MC logic — "less than 1 pJ" per §4 Case 1 [23]. Software (ABFT)
// correction costs are modeled separately in the abft and faultmodel
// packages.
func (s Scheme) CorrectionEnergyJ() float64 {
	if s == None {
		return 0
	}
	return 0.8e-12
}

// FITPerMbit returns the residual error rate (failures per 10⁹ hours per
// Mbit) with the scheme in place, from Table 5 of the paper.
func (s Scheme) FITPerMbit() float64 {
	switch s {
	case None:
		return 5000 // [23, 25]
	case SECDED:
		return 1300 // [25, 36]
	case Chipkill:
		return 0.02 // [25, 34]
	default:
		return 5000
	}
}

// Stronger reports whether s provides strictly stronger protection than o:
// §4's "strong" against "relaxed" ECC.
func (s Scheme) Stronger(o Scheme) bool { return s > o }

// LineCodec applies a scheme to a whole 64-byte cacheline, the granularity
// at which the memory controller detects and corrects (§3.1). It is the
// bridge between raw stored bytes (possibly corrupted by fault injection)
// and the per-word/per-symbol codecs.
type LineCodec struct {
	Scheme Scheme
}

// LineSize is the protected payload per line in bytes.
const LineSize = 64

// CheckBytes returns the number of redundant bytes stored per 64-byte line:
// 8 for SECDED (one check byte per 64-bit word) and 8 for chipkill (two
// 4-check-symbol codewords per line pair, amortized to 8 bytes per line);
// §2.2's 12.5% storage overhead at line granularity.
func (c LineCodec) CheckBytes() int {
	if c.Scheme == None {
		return 0
	}
	return 8
}

// Encode computes the redundancy for a 64-byte line. The returned slice has
// CheckBytes() bytes. For None it is empty.
func (c LineCodec) Encode(line *[LineSize]byte) []byte {
	switch c.Scheme {
	case SECDED:
		out := make([]byte, 8)
		for w := 0; w < 8; w++ {
			out[w] = SECDEDEncode(wordAt(line, w))
		}
		return out
	case Chipkill:
		// Two RS codewords cover the 64-byte line (32 data symbols each).
		out := make([]byte, 8)
		var half [ChipkillData]byte
		copy(half[:], line[:32])
		chk := ChipkillEncode(&half)
		copy(out[:4], chk[:])
		copy(half[:], line[32:])
		chk = ChipkillEncode(&half)
		copy(out[4:], chk[:])
		return out
	default:
		return nil
	}
}

// Decode verifies and repairs a line in place against its redundancy. The
// worst outcome across the line's codewords is returned (Detected dominates
// Corrected dominates OK). For None it always returns OK: errors flow to
// software unobserved.
func (c LineCodec) Decode(line *[LineSize]byte, check []byte) Result {
	switch c.Scheme {
	case None:
		return OK
	case SECDED:
		worst := OK
		for w := 0; w < 8; w++ {
			fixed, fixedChk, r := SECDEDDecode(wordAt(line, w), check[w])
			if r == Corrected {
				putWordAt(line, w, fixed)
				check[w] = fixedChk
			}
			if r > worst {
				worst = r
			}
		}
		return worst
	case Chipkill:
		worst := OK
		for h := 0; h < 2; h++ {
			var half [ChipkillData]byte
			var chk [ChipkillCheck]byte
			copy(half[:], line[h*32:(h+1)*32])
			copy(chk[:], check[h*4:(h+1)*4])
			r, _ := ChipkillDecode(&half, &chk)
			if r == Corrected {
				copy(line[h*32:(h+1)*32], half[:])
				copy(check[h*4:(h+1)*4], chk[:])
			}
			if r > worst {
				worst = r
			}
		}
		return worst
	default:
		return OK
	}
}

func wordAt(line *[LineSize]byte, w int) uint64 {
	var v uint64
	for b := 0; b < 8; b++ {
		v |= uint64(line[w*8+b]) << (8 * b)
	}
	return v
}

func putWordAt(line *[LineSize]byte, w int, v uint64) {
	for b := 0; b < 8; b++ {
		line[w*8+b] = byte(v >> (8 * b))
	}
}

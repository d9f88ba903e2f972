package ecc

import (
	"math/bits"
	"testing"
)

// FuzzSECDED corrupts a (72,64) codeword by toggling the bit positions the
// input names (each byte mod 72; positions 64..71 are the check bits, and a
// position named twice cancels). Within the code's capacity the verdict is
// exact: one flip is corrected back to the original word and check, two are
// detected. Beyond it the decoder must not panic, and whatever it calls
// corrected must be a valid codeword.
func FuzzSECDED(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0x0123456789abcdef), []byte{5})
	f.Add(uint64(0x0123456789abcdef), []byte{70})
	f.Add(^uint64(0), []byte{0, 63})
	f.Add(uint64(42), []byte{3, 66})
	f.Add(uint64(42), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data uint64, flips []byte) {
		var dataMask uint64
		var checkMask byte
		for _, b := range flips {
			if p := int(b) % 72; p < 64 {
				dataMask ^= 1 << p
			} else {
				checkMask ^= 1 << (p - 64)
			}
		}
		check := SECDEDEncode(data)
		n := bits.OnesCount64(dataMask) + bits.OnesCount8(checkMask)
		fixed, fixedCheck, r := SECDEDDecode(data^dataMask, check^checkMask)
		switch {
		case n == 0:
			if r != OK || fixed != data || fixedCheck != check {
				t.Fatalf("clean word: %v (%#x, %#x), want ok (%#x, %#x)", r, fixed, fixedCheck, data, check)
			}
		case n == 1:
			if r != Corrected || fixed != data || fixedCheck != check {
				t.Fatalf("one flip (%#x, %#x): %v (%#x, %#x), want corrected (%#x, %#x)",
					dataMask, checkMask, r, fixed, fixedCheck, data, check)
			}
		case n == 2:
			if r != Detected {
				t.Fatalf("two flips (%#x, %#x): %v, want detected", dataMask, checkMask, r)
			}
		case r == Corrected && SECDEDEncode(fixed) != fixedCheck:
			t.Fatalf("%d flips: corrected to (%#x, %#x), which is not a codeword", n, fixed, fixedCheck)
		}
	})
}

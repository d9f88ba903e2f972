package ecc

import (
	"bytes"
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

// FuzzRSDecode builds an RS code of fuzzed size (2..17 check symbols, as
// many data symbols as fit in 255), encodes a payload and XORs the given
// (position, value) pairs into the codeword; positions [0, nData) are data
// symbols and the rest check symbols, the convention Decode reports in.
// One corrupted symbol is corrected at its position; 2 to nCheck−1 are
// detected, as Decode promises. Wider patterns must not panic, and a
// corrected result must re-encode to its check symbols.
func FuzzRSDecode(f *testing.F) {
	f.Add(uint8(14), uint8(1), []byte("payload"), []byte{})
	f.Add(uint8(14), uint8(1), []byte("payload"), []byte{3, 0x5a})
	f.Add(uint8(30), uint8(2), []byte{0xff}, []byte{31, 1})
	f.Add(uint8(30), uint8(2), []byte{1, 2, 3}, []byte{0, 7, 9, 200})
	f.Add(uint8(100), uint8(6), []byte("x8 chipkill"), []byte{4, 1, 50, 2, 101, 3, 7, 4})
	f.Add(uint8(15), uint8(1), []byte{}, []byte{1, 1, 2, 2, 3, 3})
	f.Fuzz(func(t *testing.T, nd, nc uint8, payload, corrupt []byte) {
		nCheck := 2 + int(nc)%16
		nData := 1 + int(nd)%(255-nCheck)
		c := NewRSCode(nData, nCheck)
		data := make([]byte, nData)
		for i := range data {
			if len(payload) > 0 {
				data[i] = payload[i%len(payload)] + byte(i/len(payload))
			}
		}
		check := c.Encode(data)
		word := append(append([]byte(nil), data...), check...)
		got := append([]byte(nil), word...)
		for i := 0; i+1 < len(corrupt); i += 2 {
			got[int(corrupt[i])%len(got)] ^= corrupt[i+1]
		}
		wrong, at := 0, -1
		for i := range got {
			if got[i] != word[i] {
				wrong, at = wrong+1, i
			}
		}
		gotData, gotCheck := got[:nData], got[nData:]
		r, pos := c.Decode(gotData, gotCheck)
		switch {
		case wrong == 0:
			if r != OK {
				t.Fatalf("RS(%d+%d) clean word: %v", nData, nCheck, r)
			}
		case wrong == 1:
			if r != Corrected || pos != at || !bytes.Equal(got, word) {
				t.Fatalf("RS(%d+%d) symbol %d corrupted: %v at %d, repaired = %v",
					nData, nCheck, at, r, pos, bytes.Equal(got, word))
			}
		case wrong < nCheck:
			if r != Detected {
				t.Fatalf("RS(%d+%d) %d symbols corrupted: %v at %d, want detected", nData, nCheck, wrong, r, pos)
			}
		case r == Corrected && !bytes.Equal(c.Encode(gotData), gotCheck):
			t.Fatalf("RS(%d+%d) %d symbols corrupted: corrected at %d to a non-codeword", nData, nCheck, wrong, pos)
		}
	})
}

package tracefile

import (
	"testing"
)

// FuzzReader feeds arbitrary bytes through the trace reader, as a Next
// loop and as ReadAll. Any input — truncated blocks, corrupt CRCs, bogus
// varints, hostile lengths — must come back as an error, never a panic or
// runaway allocation, and both must give the same ops or the same error.
func FuzzReader(f *testing.F) {
	// Seed with structurally valid traces of a few sizes plus simple
	// mutations, so the fuzzer starts past the magic/CRC gates.
	for _, n := range []int{0, 3, 64} {
		raw, _ := sampleTrace(f, n)
		f.Add(raw)
		if len(raw) > 8 {
			f.Add(raw[:len(raw)/2])
			mut := append([]byte(nil), raw...)
			mut[len(mut)-3] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add(storeAtTrace(f, 4<<20)) // a store beyond the 2 MB arena
	f.Add([]byte("SCTR\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// decodeBoth fails unless a Next loop and ReadAll agree.
		if _, ops, _ := decodeBoth(t, data); len(ops) > 1<<22 {
			t.Fatalf("reader produced over 4M ops from %d input bytes", len(data))
		}
	})
}

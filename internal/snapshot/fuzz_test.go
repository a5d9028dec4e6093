package snapshot_test

import (
	"testing"

	"shine/internal/snapshot"
)

// FuzzReadBytes hammers the artifact reader with mutated input. The
// contract under fuzzing: ReadBytes either returns an error or a
// Snapshot whose Model materialises — never a panic, and never an
// allocation driven by a declared count the payload cannot back.
func FuzzReadBytes(f *testing.F) {
	valid := encodeFixture(f, newFixture(f))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SHINESNP"))
	f.Add(valid[:16])
	f.Add(valid[:len(valid)/2])
	truncTable := append([]byte(nil), valid[:40]...)
	f.Add(truncTable)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	versionBump := append([]byte(nil), valid...)
	versionBump[8] = 0xFF
	f.Add(versionBump)
	// One artifact per older version the reader accepts.
	f.Add(asVersion(valid, 1))
	f.Add(asV2(valid, []byte("trie")))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.ReadBytes(data)
		if err != nil {
			return
		}
		m, err := s.Model()
		if err != nil {
			t.Fatalf("accepted artifact failed to materialise: %v", err)
		}
		if m == nil || s.Info().Checksum == "" {
			t.Fatal("accepted artifact produced empty model or info")
		}
	})
}

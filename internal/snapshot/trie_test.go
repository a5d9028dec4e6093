package snapshot_test

import (
	"hash/crc32"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"shine/internal/snapshot"
	"shine/internal/surftrie"
)

// trieMentions exercise every lookup mode over the fixture corpus
// ("Wei Wang", "Wei Wang (2)", "Rakesh Kumar").
var trieMentions = []string{"Wei Wang", "wang, wei", "W. Wang", "Rakesh Kumar", "Rakesh Kumer", "Nobody"}

// TestTrieRoundTrip: a trie restored from an artifact is structurally
// identical to the one that was written — same wire arrays, and
// bit-identical candidate lists in every lookup mode.
func TestTrieRoundTrip(t *testing.T) {
	f := newFixture(t)
	data := encodeFixture(t, f)
	s, err := snapshot.ReadBytes(data)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	m2, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	t1, t2 := f.model.Trie(), m2.Trie()
	if t1 == nil || t2 == nil {
		t.Fatal("model missing its trie")
	}
	if !reflect.DeepEqual(t1.Raw(), t2.Raw()) {
		t.Error("restored trie has different wire arrays")
	}
	for _, m := range trieMentions {
		if a, b := t1.Candidates(m), t2.Candidates(m); !slices.Equal(a, b) {
			t.Errorf("Candidates(%q): %v vs %v after snapshot", m, a, b)
		}
		if a, b := t1.LooseCandidates(m), t2.LooseCandidates(m); !slices.Equal(a, b) {
			t.Errorf("LooseCandidates(%q): %v vs %v after snapshot", m, a, b)
		}
		for dist := 0; dist <= surftrie.MaxDistance; dist++ {
			if a, b := t1.FuzzyCandidates(m, dist), t2.FuzzyCandidates(m, dist); !slices.Equal(a, b) {
				t.Errorf("FuzzyCandidates(%q, %d): %v vs %v after snapshot", m, dist, a, b)
			}
		}
	}
}

func TestInfoTrieNodes(t *testing.T) {
	f := newFixture(t)
	path := filepath.Join(t.TempDir(), "model.snap")
	info, err := snapshot.WriteFile(path, f.model.Parts())
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if want := f.model.Trie().Stats().Nodes; info.TrieNodes != want || want == 0 {
		t.Errorf("info.TrieNodes = %d, want %d (non-zero)", info.TrieNodes, want)
	}
	if info.FormatVersion != snapshot.FormatVersion {
		t.Errorf("info.FormatVersion = %d, want %d", info.FormatVersion, snapshot.FormatVersion)
	}
}

const (
	headerLen = 16
	entryLen  = 28
)

// trieSection locates section 9's table entry and payload bounds in a
// valid artifact.
func trieSection(t *testing.T, data []byte) (entryOff, payloadOff, payloadLen int) {
	t.Helper()
	count := int(leU32(data[12:]))
	for i := 0; i < count; i++ {
		row := headerLen + i*entryLen
		if leU32(data[row:]) == 9 {
			off := leU64(data[row+8:])
			length := leU64(data[row+16:])
			return row, int(off), int(length)
		}
	}
	t.Fatal("artifact has no trie section")
	return 0, 0, 0
}

// rewriteCRCs recomputes the trie section's payload CRC and the table
// CRC so a deliberate payload corruption reaches the trie decoder
// instead of being caught by the checksum layer.
func rewriteCRCs(data []byte, entryOff, payloadOff, payloadLen int) {
	binaryPutU32(data[entryOff+24:], crc32.ChecksumIEEE(data[payloadOff:payloadOff+payloadLen]))
	count := int(leU32(data[12:]))
	tableEnd := headerLen + entryLen*count
	binaryPutU32(data[tableEnd:], crc32.ChecksumIEEE(data[headerLen:tableEnd]))
}

// TestReadRejectsCorruptTrieSection corrupts the trie payload in ways
// the CRC no longer catches (it is recomputed over the corrupted
// bytes) — FromRaw's structural validation must reject each.
func TestReadRejectsCorruptTrieSection(t *testing.T) {
	f := newFixture(t)
	valid := encodeFixture(t, f)
	entryOff, payloadOff, payloadLen := trieSection(t, valid)

	corrupt := func(name string, mutate func(payload []byte)) {
		data := slices.Clone(valid)
		mutate(data[payloadOff : payloadOff+payloadLen])
		rewriteCRCs(data, entryOff, payloadOff, payloadLen)
		if _, err := snapshot.ReadBytes(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	corrupt("node count inflated", func(p []byte) {
		binaryPutU32(p[4:], 1<<30) // offsets for 2^30 nodes cannot fit the payload
	})
	corrupt("label length past payload", func(p []byte) {
		binaryPutU32(p[8:], uint32(payloadLen))
	})
	corrupt("last entity out of range", func(p []byte) {
		binaryPutU32(p[len(p)-4:], 0x7FFFFFFF)
	})
	corrupt("last entity negative", func(p []byte) {
		binaryPutU32(p[len(p)-4:], 0xFFFFFFFF)
	})

	// Truncating the declared section length breaks payload contiguity.
	data := slices.Clone(valid)
	le64Put(data[entryOff+16:], uint64(payloadLen-4))
	rewriteCRCs(data, entryOff, payloadOff, payloadLen-4)
	if _, err := snapshot.ReadBytes(data); err == nil {
		t.Error("truncated trie section accepted")
	}
}

// stripTrieSection turns a valid v2 artifact into the v1 layout: drop
// section 9's table entry and payload, shift the remaining payload
// offsets, and stamp version 1. This is byte-for-byte what a v1 build
// wrote, so it doubles as the backward-compatibility fixture.
func stripTrieSection(t *testing.T, data []byte) []byte {
	t.Helper()
	entryOff, payloadOff, payloadLen := trieSection(t, data)
	count := int(leU32(data[12:]))
	oldTableEnd := headerLen + entryLen*count

	out := make([]byte, 0, len(data)-entryLen-payloadLen)
	out = append(out, data[:8]...)
	out = appendTestU32(out, 1)               // version 1
	out = appendTestU32(out, uint32(count-1)) // without the trie section
	for i := 0; i < count; i++ {
		row := headerLen + i*entryLen
		if row == entryOff {
			continue
		}
		entry := slices.Clone(data[row : row+entryLen])
		le64Put(entry[8:], leU64(entry[8:])-entryLen) // payloads moved up one table row
		out = append(out, entry...)
	}
	newTableEnd := oldTableEnd - entryLen
	out = appendTestU32(out, crc32.ChecksumIEEE(out[headerLen:newTableEnd]))
	out = append(out, data[oldTableEnd+4:payloadOff]...) // all payloads before the trie's
	if payloadOff+payloadLen != len(data) {
		t.Fatal("trie payload is not last; cannot strip")
	}
	return out
}

// TestReadV1Artifact: a version-1 artifact (no trie section) still
// reads; the trie is rebuilt from the graph and serves the same
// candidates the persisted one would.
func TestReadV1Artifact(t *testing.T) {
	f := newFixture(t)
	v1 := stripTrieSection(t, encodeFixture(t, f))
	s, err := snapshot.ReadBytes(v1)
	if err != nil {
		t.Fatalf("ReadBytes(v1): %v", err)
	}
	if got := s.Info().FormatVersion; got != 1 {
		t.Errorf("info.FormatVersion = %d, want 1", got)
	}
	if got := s.Info().TrieNodes; got != 0 {
		t.Errorf("info.TrieNodes = %d for a v1 artifact, want 0: a trie decoded from nowhere", got)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if m.Trie() == nil {
		t.Fatal("FromParts did not rebuild the trie")
	}
	for _, mention := range trieMentions {
		if a, b := f.model.Trie().Candidates(mention), m.Trie().Candidates(mention); !slices.Equal(a, b) {
			t.Errorf("Candidates(%q): %v vs %v after v1 restore", mention, a, b)
		}
	}
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

func le64Put(b []byte, v uint64) {
	binaryPutU32(b, uint32(v))
	binaryPutU32(b[4:], uint32(v>>32))
}

func appendTestU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

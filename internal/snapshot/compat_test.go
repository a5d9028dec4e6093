package snapshot_test

import (
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/surftrie"
)

// trieMentions exercise every lookup mode over the fixture corpus
// ("Wei Wang", "Wei Wang (2)", "Rakesh Kumar").
var trieMentions = []string{"Wei Wang", "wang, wei", "W. Wang", "Rakesh Kumar", "Rakesh Kumer", "Nobody"}

// readModel reads an artifact, checks the format version its Info
// reports and materialises the model.
func readModel(t *testing.T, data []byte, version uint32) *shine.Model {
	t.Helper()
	s, err := snapshot.ReadBytes(data)
	if err != nil {
		t.Fatalf("ReadBytes(v%d): %v", version, err)
	}
	if got := s.Info().FormatVersion; got != version {
		t.Errorf("info.FormatVersion = %d, want %d", got, version)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	return m
}

// checkCandidates requires got, a model read from an artifact, to
// serve the candidate lists of want, the model that wrote it, in the
// exact, loose and fuzzy (distance 0 to surftrie.MaxDistance) modes.
func checkCandidates(t *testing.T, want, got *shine.Model) {
	t.Helper()
	t1, ok1 := want.CandidateSource().(*surftrie.Trie)
	t2, ok2 := got.CandidateSource().(*surftrie.Trie)
	if !ok1 || !ok2 {
		t.Fatal("model serves without a surface-form trie")
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

// TestTrieRoundTrip: the trie a model read from its artifact builds
// serves the candidate lists of the model that wrote it.
func TestTrieRoundTrip(t *testing.T) {
	f := newFixture(t)
	checkCandidates(t, f.model, readModel(t, encodeFixture(t, f), snapshot.FormatVersion))
}

// asVersion returns a copy of data stamped with format version v. The
// header is outside every CRC, so only the version word changes.
func asVersion(data []byte, v uint32) []byte {
	out := slices.Clone(data)
	binaryPutU32(out[8:], v)
	return out
}

// asV2 turns a current artifact into the version-2 layout: version 2
// and a section 9 after the mixtures. Version 2 carried a copy of the
// surface-form trie there; the reader checks the section's CRC and
// skips it, so any payload stands in for one.
func asV2(data, payload []byte) []byte {
	return appendSection(asVersion(data, 2), 9, payload)
}

// TestReadV1Artifact: version 1 has version 3's eight sections, so a
// current artifact stamped version 1 is one. It reads, and serves the
// candidates of the model that wrote it.
func TestReadV1Artifact(t *testing.T) {
	f := newFixture(t)
	checkCandidates(t, f.model, readModel(t, asVersion(encodeFixture(t, f), 1), 1))
}

// TestReadV2Artifact: a version-2 artifact's trie section is skipped,
// whatever it holds; the trie is built from the graph, and serves the
// candidates of the model that wrote the artifact.
func TestReadV2Artifact(t *testing.T) {
	f := newFixture(t)
	checkCandidates(t, f.model, readModel(t, asV2(encodeFixture(t, f), []byte("any payload")), 2))
}

// TestReadRejectsCorruptTrieSection: a skipped trie section is still
// checked. A payload that fails its CRC is rejected, and so is a trie
// section in a version that has none, or its absence from version 2.
func TestReadRejectsCorruptTrieSection(t *testing.T) {
	v3 := encodeFixture(t, newFixture(t))
	v2 := asV2(v3, []byte("trie"))
	corrupt := slices.Clone(v2)
	corrupt[len(corrupt)-1] ^= 0x40 // the trie payload ends the artifact
	if _, err := snapshot.ReadBytes(corrupt); err == nil || !strings.Contains(err.Error(), "section trie checksum mismatch") {
		t.Errorf("v2 trie payload failing its CRC: error %v, want a trie checksum mismatch", err)
	}
	for name, data := range map[string][]byte{
		"v1 with a trie section":    asVersion(v2, 1),
		"v2 without a trie section": asVersion(v3, 2),
		"v3 with a trie section":    appendSection(v3, 9, []byte("trie")),
	} {
		if _, err := snapshot.ReadBytes(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const (
	headerLen = 16
	entryLen  = 28
)

// appendSection rebuilds an artifact with one more section, id, after
// the last: the table grows by one row, every payload moves down by
// that row, and the table CRC is recomputed.
func appendSection(data []byte, id uint32, payload []byte) []byte {
	count := int(leU32(data[12:]))
	tableEnd := headerLen + entryLen*count
	out := slices.Clone(data[:tableEnd])
	binaryPutU32(out[12:], uint32(count+1))
	for i := 0; i < count; i++ {
		row := out[headerLen+i*entryLen:]
		le64Put(row[8:], leU64(row[8:])+entryLen)
	}
	row := make([]byte, entryLen)
	binaryPutU32(row, id)
	le64Put(row[8:], uint64(len(data)+entryLen))
	le64Put(row[16:], uint64(len(payload)))
	binaryPutU32(row[24:], crc32.ChecksumIEEE(payload))
	out = append(out, row...)
	out = appendTestU32(out, crc32.ChecksumIEEE(out[headerLen:]))
	out = append(out, data[tableEnd+4:]...)
	return append(out, payload...)
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

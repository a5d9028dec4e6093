// Package snapshot implements the versioned binary model artifact:
// one file holding everything a serving replica needs — the CSR
// graph, PageRank popularity, learned meta-path weights and config,
// the frozen per-candidate mixture index, the generic object model
// and the string/ID symbol tables — laid out as length-prefixed
// little-endian arrays so loading is a sequential validate-and-slice
// pass with no per-element parsing. A restored model's Link output is
// bit-identical to the model that was written.
//
// Wire format (all integers little-endian):
//
//	magic    [8]byte "SHINESNP"
//	version  uint32            format version; readers reject newer
//	count    uint32            number of sections
//	table    count × { id uint32, flags uint32, offset uint64,
//	                   length uint64, crc uint32 }
//	tableCRC uint32            CRC-32 (IEEE) of the table bytes
//	payloads                   section bytes at the tabled offsets
//
// Sections appear in the table with strictly ascending IDs, and their
// payloads are laid out contiguously in table order — a reordered or
// overlapping table is rejected. Every payload carries its own CRC-32
// in the table, checked before any field of it is decoded. The
// whole-artifact CRC-32 (over every byte of the file) is not stored;
// it is computed on read and write and reported as Info.Checksum so
// operators can confirm which artifact each replica serves.
//
// Compatibility: version bumps on any layout change. A reader
// encountering a newer version fails with a "built by a newer shine"
// error; older versions that can still be decoded are listed
// explicitly. Version 3 is current: sections 1–8. Version 2 appended
// section 9, a copy of the surface-form trie; its CRC is checked with
// the others and its payload skipped, because the reader builds the
// trie from the objects section. Version 1 has version 3's layout, so
// reading it costs nothing.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

const (
	// Magic identifies a SHINE snapshot artifact.
	Magic = "SHINESNP"
	// FormatVersion is the current wire format version.
	FormatVersion = 3
	// minFormatVersion is the oldest version this build still reads.
	minFormatVersion = 1

	headerLen    = 8 + 4 + 4 // magic + version + section count
	tableEntry   = 4 + 4 + 8 + 8 + 4
	maxSections  = 64
	maxPathCount = 1 << 16
)

// Section IDs. Decode order is ID order; each section may reference
// counts established by earlier ones (the CSR section trusts the
// object count from the objects section, and so on).
const (
	secMeta       = 1 // JSON: schema, entity type, path notations, centrality backend and sweeps
	secConfig     = 2 // JSON: shine.Config (execution knobs excluded)
	secObjects    = 3 // typeOf array + name symbol table
	secCSR        = 4 // per directed relation: row offsets + column indices
	secPopularity = 5 // dense P(e) over the entity list
	secWeights    = 6 // learned meta-path weight vector
	secGeneric    = 7 // generic object model Pg as a frozen sparse pair
	secMixtures   = 8 // frozen per-candidate mixture index
	secTrie       = 9 // format v2 only: a copy of the surface-form trie, skipped
)

var sectionNames = map[uint32]string{
	secMeta:       "meta",
	secConfig:     "config",
	secObjects:    "objects",
	secCSR:        "csr",
	secPopularity: "popularity",
	secWeights:    "weights",
	secGeneric:    "generic",
	secMixtures:   "mixtures",
	secTrie:       "trie",
}

// ErrNewerVersion marks an artifact written by a newer shine build.
var ErrNewerVersion = errors.New("snapshot: artifact built by a newer shine")

// Info summarises an artifact for operators: `shine snapshot inspect`
// prints it, `shine serve` logs it at startup and exposes it in the
// /v1/healthz payload.
type Info struct {
	// FormatVersion is the artifact's wire format version.
	FormatVersion uint32 `json:"formatVersion"`
	// Checksum is the CRC-32 (IEEE) of the whole artifact, in hex —
	// the identity operators compare across a fleet.
	Checksum string `json:"checksum"`
	// Bytes is the artifact size.
	Bytes int64 `json:"bytes"`
	// Sections is the section count.
	Sections int `json:"sections"`

	EntityType     string `json:"entityType"`
	Objects        int    `json:"objects"`
	Links          int    `json:"links"`
	Entities       int    `json:"entities"`
	Paths          int    `json:"paths"`
	MixtureEntries int    `json:"mixtureEntries"`
	GenericSupport int    `json:"genericSupport"`
	// Centrality is the backend that produced the artifact's
	// popularity section ("pagerank" for artifacts written before the
	// field existed). Loading enforces it against the serving config,
	// so operators can trust the reported name.
	Centrality string `json:"centrality"`
}

func (i Info) String() string {
	return fmt.Sprintf("snapshot v%d checksum=%s bytes=%d entityType=%s objects=%d links=%d entities=%d paths=%d mixtures=%d genericSupport=%d centrality=%s",
		i.FormatVersion, i.Checksum, i.Bytes, i.EntityType, i.Objects, i.Links, i.Entities, i.Paths, i.MixtureEntries, i.GenericSupport, i.Centrality)
}

// metaSection is the JSON payload of section 1: everything small and
// structural. The schema is stored as forward relation pairs, exactly
// the calls that rebuild it. Artifacts written before the centrality
// wall time was dropped also carry "prSeconds"; decoding skips the
// unknown field, so they still read.
type metaSection struct {
	EntityType   string     `json:"entityType"`
	Paths        []string   `json:"paths"`
	PRIterations int        `json:"prIterations"`
	Types        []typeMeta `json:"types"`
	Relations    []relMeta  `json:"relations"`
	// Centrality records which pagerank.Centrality backend produced
	// the popularity section. Absent from artifacts written before the
	// field existed; it then decodes to "", which readers treat as
	// "pagerank" — the only backend that existed when those artifacts
	// were written.
	Centrality string `json:"centrality,omitempty"`
}

type typeMeta struct {
	Name   string `json:"name"`
	Abbrev string `json:"abbrev"`
}

type relMeta struct {
	Name    string `json:"name"`
	Inverse string `json:"inverse"`
	From    int32  `json:"from"`
	To      int32  `json:"to"`
}

var le = binary.LittleEndian

// Append helpers used by the writer.

func appendU32(b []byte, v uint32) []byte { return le.AppendUint32(b, v) }

func appendU32s(b []byte, xs []uint32) []byte {
	for _, x := range xs {
		b = le.AppendUint32(b, x)
	}
	return b
}

func appendI32s(b []byte, xs []int32) []byte {
	for _, x := range xs {
		b = le.AppendUint32(b, uint32(x))
	}
	return b
}

func appendF64s(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = le.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// cursor is the bounds-checked sequential decoder. Every declared
// count is validated against the bytes actually remaining before any
// allocation, so a hostile header can never drive an allocation
// larger than the artifact itself.
type cursor struct {
	b   []byte
	off int
	sec string // section name, for error messages
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) fail(format string, args ...interface{}) error {
	return fmt.Errorf("snapshot: section %s at offset %d: %s", c.sec, c.off, fmt.Sprintf(format, args...))
}

func (c *cursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, c.fail("truncated uint32")
	}
	v := le.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

// words decodes the next n little-endian 32-bit words straight into a
// []T. The destination is the decoded field's own type (uint32
// offsets, int32 indices, hin.ObjectID adjacency, hin.TypeID types),
// so each array is allocated once, never decoded as []int32 and
// copied.
func words[T ~int32 | ~uint32](c *cursor, n int) ([]T, error) {
	if n < 0 || c.remaining()/4 < n {
		return nil, c.fail("%d 32-bit words declared, %d bytes remain", n, c.remaining())
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(le.Uint32(c.b[c.off+4*i:]))
	}
	c.off += 4 * n
	return out, nil
}

func (c *cursor) f64s(n int) ([]float64, error) {
	if n < 0 || c.remaining()/8 < n {
		return nil, c.fail("%d float64s declared, %d bytes remain", n, c.remaining())
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(le.Uint64(c.b[c.off+8*i:]))
	}
	c.off += 8 * n
	return out, nil
}

// bytes returns a copy of the next n bytes, like every other decoder
// here: a decoded field that aliased the artifact buffer would keep
// the whole file alive for as long as the model lives.
func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, c.fail("%d bytes declared, %d remain", n, c.remaining())
	}
	out := append([]byte(nil), c.b[c.off:c.off+n]...)
	c.off += n
	return out, nil
}

func (c *cursor) done() error {
	if c.remaining() != 0 {
		return c.fail("%d trailing bytes", c.remaining())
	}
	return nil
}

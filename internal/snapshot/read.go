package snapshot

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
	"shine/internal/sparse"
	"shine/internal/surftrie"
)

// Snapshot is a decoded artifact: the validated model decomposition
// plus its identity. Decoding already ran every structural check
// (CRCs, bounds, CSR invariants) and built the surface-form trie, so
// Model() is a cheap final assembly — a weight install, no walks, no
// PageRank.
type Snapshot struct {
	parts shine.Parts
	info  Info
}

// Info returns the artifact's identity and shape.
func (s *Snapshot) Info() Info { return s.info }

// Model materialises the serving model.
func (s *Snapshot) Model() (*shine.Model, error) {
	return shine.FromParts(s.parts)
}

// ReadFile reads and validates an artifact from disk.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := ReadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return s, nil
}

// ReadBytes decodes and validates an artifact held in memory. Every
// declared length is bounded by the bytes present before anything is
// allocated, every section CRC is checked before its fields are
// decoded, and the reassembled graph and model pass the same
// invariant sweeps a from-scratch build would — corrupt, truncated or
// reordered input returns an error, never a panic or an outsized
// allocation. The surface-form trie is built from the decoded graph,
// as shine.New builds it; no version stores one the reader uses.
func ReadBytes(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than any artifact", len(data))
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q, not a SHINE snapshot", data[:8])
	}
	version := le.Uint32(data[8:])
	if version > FormatVersion {
		return nil, fmt.Errorf("%w: artifact format v%d, this build reads up to v%d; upgrade the binary",
			ErrNewerVersion, version, FormatVersion)
	}
	if version < minFormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d", version)
	}
	count := int(le.Uint32(data[12:]))
	if count <= 0 || count > maxSections {
		return nil, fmt.Errorf("snapshot: section count %d out of range", count)
	}
	tableLen := tableEntry * count
	if len(data) < headerLen+tableLen+4 {
		return nil, fmt.Errorf("snapshot: truncated section table")
	}
	table := data[headerLen : headerLen+tableLen]
	if got, want := crc32.ChecksumIEEE(table), le.Uint32(data[headerLen+tableLen:]); got != want {
		return nil, fmt.Errorf("snapshot: section table checksum mismatch: file %08x, computed %08x", want, got)
	}

	// Parse the table. IDs must be strictly ascending and payloads
	// contiguous in table order — a shuffled table is corruption, not a
	// layout choice.
	type entry struct {
		id      uint32
		payload []byte
	}
	entries := make([]entry, count)
	expect := uint64(headerLen + tableLen + 4)
	for i := range entries {
		row := table[i*tableEntry:]
		id := le.Uint32(row)
		offset := le.Uint64(row[8:])
		length := le.Uint64(row[16:])
		crc := le.Uint32(row[24:])
		if i > 0 && entries[i-1].id >= id {
			return nil, fmt.Errorf("snapshot: section table not strictly ascending at entry %d (id %d)", i, id)
		}
		if offset != expect {
			return nil, fmt.Errorf("snapshot: section %s at offset %d, expected %d", sectionName(id), offset, expect)
		}
		if length > uint64(len(data))-offset {
			return nil, fmt.Errorf("snapshot: section %s length %d exceeds artifact", sectionName(id), length)
		}
		payload := data[offset : offset+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("snapshot: section %s checksum mismatch: table %08x, computed %08x", sectionName(id), crc, got)
		}
		entries[i] = entry{id: id, payload: payload}
		expect = offset + length
	}
	if expect != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last section", uint64(len(data))-expect)
	}
	want := []uint32{secMeta, secConfig, secObjects, secCSR, secPopularity, secWeights, secGeneric, secMixtures}
	if version == 2 {
		want = append(want, secTrie) // CRC-checked above, never decoded
	}
	if count != len(want) {
		return nil, fmt.Errorf("snapshot: %d sections, format v%d has %d", count, version, len(want))
	}
	for i, id := range want {
		if entries[i].id != id {
			return nil, fmt.Errorf("snapshot: section %d is id %d, want %s", i, entries[i].id, sectionName(id))
		}
	}
	payload := func(id uint32) []byte { return entries[id-1].payload }

	// Section 1: meta — schema, entity type, paths.
	var meta metaSection
	if err := json.Unmarshal(payload(secMeta), &meta); err != nil {
		return nil, fmt.Errorf("snapshot: decoding meta: %w", err)
	}
	if len(meta.Paths) == 0 || len(meta.Paths) > maxPathCount {
		return nil, fmt.Errorf("snapshot: %d meta-paths out of range", len(meta.Paths))
	}
	schema := hin.NewSchema()
	for _, t := range meta.Types {
		if _, err := schema.AddType(t.Name, t.Abbrev); err != nil {
			return nil, fmt.Errorf("snapshot: rebuilding schema: %w", err)
		}
	}
	for _, r := range meta.Relations {
		if _, err := schema.AddRelation(r.Name, r.Inverse, hin.TypeID(r.From), hin.TypeID(r.To)); err != nil {
			return nil, fmt.Errorf("snapshot: rebuilding schema: %w", err)
		}
	}
	entityType, ok := schema.TypeByName(meta.EntityType)
	if !ok {
		return nil, fmt.Errorf("snapshot: schema has no entity type %q", meta.EntityType)
	}
	paths, err := metapath.ParseAll(schema, meta.Paths)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reparsing meta-paths: %w", err)
	}

	// Section 2: config.
	var cfg shine.Config
	if err := json.Unmarshal(payload(secConfig), &cfg); err != nil {
		return nil, fmt.Errorf("snapshot: decoding config: %w", err)
	}

	// Section 3: objects.
	c := &cursor{b: payload(secObjects), sec: "objects"}
	nu, err := c.u32()
	if err != nil {
		return nil, err
	}
	n := int(nu)
	types, err := words[hin.TypeID](c, n)
	if err != nil {
		return nil, err
	}
	nameBytes, err := c.u32()
	if err != nil {
		return nil, err
	}
	nameOffs, err := words[uint32](c, n+1)
	if err != nil {
		return nil, err
	}
	blob, err := c.bytes(int(nameBytes))
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	if nameOffs[0] != 0 || nameOffs[n] != nameBytes {
		return nil, fmt.Errorf("snapshot: name offsets span [%d, %d] over %d bytes", nameOffs[0], nameOffs[n], nameBytes)
	}
	names := make([]string, n)
	for v := 0; v < n; v++ {
		if nameOffs[v+1] < nameOffs[v] || nameOffs[v+1] > nameBytes {
			return nil, fmt.Errorf("snapshot: name offsets decrease at object %d", v)
		}
		names[v] = string(blob[nameOffs[v]:nameOffs[v+1]])
	}

	// Section 4: CSR adjacency.
	c = &cursor{b: payload(secCSR), sec: "csr"}
	numRelsU, err := c.u32()
	if err != nil {
		return nil, err
	}
	if int(numRelsU) != schema.NumRelations() {
		return nil, fmt.Errorf("snapshot: %d relation arrays for schema with %d relations", numRelsU, schema.NumRelations())
	}
	offs := make([][]int32, numRelsU)
	adjs := make([][]hin.ObjectID, numRelsU)
	for rel := range offs {
		off, err := words[int32](c, n+1)
		if err != nil {
			return nil, err
		}
		m, err := c.u32()
		if err != nil {
			return nil, err
		}
		if off[n] != int32(m) {
			return nil, fmt.Errorf("snapshot: relation %d declares %d links, offsets end at %d", rel, m, off[n])
		}
		adj, err := words[hin.ObjectID](c, int(m))
		if err != nil {
			return nil, err
		}
		offs[rel] = off
		adjs[rel] = adj
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	g, err := hin.FromParts(hin.GraphParts{
		Schema: schema, TypeOf: types, Names: names, Offs: offs, Adjs: adjs,
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	// The trie is built here, before popularity and the mixtures are
	// decoded, because the order sets the load's memory peak: Build's
	// ~2.7 MB of allocations, mostly short-lived, are garbage before
	// the mixture index, the bulk of the artifact, is decoded. Built
	// after the mixtures instead, they landed on top of the load peak,
	// and bench/run.sh's link rss_mb rose from 70.4 to 72.1 MB (medians
	// of 3 pairs of 15 s runs, each pair higher; default `shine gen`
	// network, 2 vCPUs).
	trie, err := surftrie.Build(g, entityType)
	if err != nil {
		return nil, fmt.Errorf("snapshot: indexing entity names: %w", err)
	}

	// Section 5: popularity.
	c = &cursor{b: payload(secPopularity), sec: "popularity"}
	popN, err := c.u32()
	if err != nil {
		return nil, err
	}
	popularity, err := c.f64s(int(popN))
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	// Section 6: weights.
	c = &cursor{b: payload(secWeights), sec: "weights"}
	wN, err := c.u32()
	if err != nil {
		return nil, err
	}
	weights, err := c.f64s(int(wN))
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	// Section 7: generic object model.
	c = &cursor{b: payload(secGeneric), sec: "generic"}
	gN, err := c.u32()
	if err != nil {
		return nil, err
	}
	gidx, err := words[int32](c, int(gN))
	if err != nil {
		return nil, err
	}
	gval, err := c.f64s(int(gN))
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	gdist, err := sparse.NewDistFromRaw(gidx, gval)
	if err != nil {
		return nil, fmt.Errorf("snapshot: generic model: %w", err)
	}

	// Section 8: frozen mixtures.
	c = &cursor{b: payload(secMixtures), sec: "mixtures"}
	mixN, err := c.u32()
	if err != nil {
		return nil, err
	}
	ents, err := words[hin.ObjectID](c, int(mixN))
	if err != nil {
		return nil, err
	}
	cum, err := words[uint32](c, int(mixN)+1)
	if err != nil {
		return nil, err
	}
	if cum[0] != 0 {
		return nil, fmt.Errorf("snapshot: mixture offsets start at %d", cum[0])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			return nil, fmt.Errorf("snapshot: mixture offsets decrease at entry %d", i)
		}
	}
	totalNNZ := int(cum[mixN])
	midx, err := words[int32](c, totalNNZ)
	if err != nil {
		return nil, err
	}
	mval, err := c.f64s(totalNNZ)
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	mixtures := make([]shine.MixtureEntry, mixN)
	for i := range mixtures {
		lo, hi := cum[i], cum[i+1]
		d, err := sparse.NewDistFromRaw(midx[lo:hi:hi], mval[lo:hi:hi])
		if err != nil {
			return nil, fmt.Errorf("snapshot: mixture for entity %d: %w", ents[i], err)
		}
		mixtures[i] = shine.MixtureEntry{Entity: ents[i], Mixture: d}
	}

	parts := shine.Parts{
		Graph:        g,
		EntityType:   entityType,
		Paths:        paths,
		Config:       cfg,
		Weights:      weights,
		Popularity:   popularity,
		PRIterations: meta.PRIterations,
		Centrality:   meta.Centrality,
		Generic:      gdist.Thaw(),
		Mixtures:     mixtures,
		Trie:         trie,
	}
	// Dry-run the final assembly so a Snapshot in hand is a model that
	// will materialise: FromParts runs the semantic validation
	// (weights, popularity, mixture typing) that the wire-level sweep
	// above cannot.
	if _, err := shine.FromParts(parts); err != nil {
		return nil, err
	}
	return &Snapshot{parts: parts, info: infoFor(data, parts)}, nil
}

func sectionName(id uint32) string {
	if name, ok := sectionNames[id]; ok {
		return name
	}
	return fmt.Sprintf("#%d", id)
}

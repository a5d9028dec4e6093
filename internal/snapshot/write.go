package snapshot

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"shine/internal/hin"
	"shine/internal/shine"
	"shine/internal/sparse"
)

// encode serialises a model decomposition into the artifact byte
// layout. The output is deterministic for a given Parts value — no
// timestamps, wall times or host-dependent fields — so two builds of
// the same input yield byte-identical artifacts with the same
// checksum. An empty Centrality is resolved from the config, so every
// artifact this build writes records its popularity backend.
func encode(p shine.Parts) ([]byte, error) {
	if p.Graph == nil {
		return nil, fmt.Errorf("snapshot: encoding: nil graph")
	}
	if p.Centrality == "" {
		p.Centrality = p.Config.CentralityName()
	}
	type section struct {
		id      uint32
		payload []byte
	}
	var secs []section
	add := func(id uint32, payload []byte) { secs = append(secs, section{id, payload}) }

	gp := p.Graph.Parts()
	schema := gp.Schema

	// Section 1: meta JSON.
	meta := metaSection{
		EntityType:   schema.Type(p.EntityType).Name,
		PRIterations: p.PRIterations,
		Centrality:   p.Centrality,
	}
	for _, path := range p.Paths {
		meta.Paths = append(meta.Paths, path.String())
	}
	for i := 0; i < schema.NumTypes(); i++ {
		t := schema.Type(hin.TypeID(i))
		meta.Types = append(meta.Types, typeMeta{Name: t.Name, Abbrev: t.Abbrev})
	}
	for i := 0; i < schema.NumRelations(); i += 2 {
		r := schema.Relation(hin.RelationID(i))
		meta.Relations = append(meta.Relations, relMeta{
			Name:    r.Name,
			Inverse: schema.Relation(r.Inverse).Name,
			From:    int32(r.From),
			To:      int32(r.To),
		})
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding meta: %w", err)
	}
	add(secMeta, metaJSON)

	// Section 2: config JSON (Workers carries json:"-", so artifacts
	// stay host-independent).
	cfgJSON, err := json.Marshal(p.Config)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding config: %w", err)
	}
	add(secConfig, cfgJSON)

	// Section 3: objects — typeOf array and the name symbol table as
	// one concatenated byte run with n+1 cumulative offsets.
	n := len(gp.TypeOf)
	nameBytes := 0
	for _, name := range gp.Names {
		nameBytes += len(name)
	}
	obj := appendU32(nil, uint32(n))
	obj = appendI32s(obj, typeIDsAsInt32(gp.TypeOf))
	obj = appendU32(obj, uint32(nameBytes))
	offs := make([]uint32, n+1)
	total := uint32(0)
	for i, name := range gp.Names {
		offs[i] = total
		total += uint32(len(name))
	}
	offs[n] = total
	obj = appendU32s(obj, offs)
	for _, name := range gp.Names {
		obj = append(obj, name...)
	}
	add(secObjects, obj)

	// Section 4: CSR adjacency, one (offsets, indices) pair per
	// directed relation in schema order.
	csr := appendU32(nil, uint32(len(gp.Offs)))
	for rel := range gp.Offs {
		csr = appendI32s(csr, gp.Offs[rel])
		csr = appendU32(csr, uint32(len(gp.Adjs[rel])))
		csr = appendI32s(csr, objectIDsAsInt32(gp.Adjs[rel]))
	}
	add(secCSR, csr)

	// Section 5: dense entity popularity.
	pop := appendU32(nil, uint32(len(p.Popularity)))
	pop = appendF64s(pop, p.Popularity)
	add(secPopularity, pop)

	// Section 6: learned weights, exact bits.
	w := appendU32(nil, uint32(len(p.Weights)))
	w = appendF64s(w, p.Weights)
	add(secWeights, w)

	// Section 7: generic object model as a frozen sparse pair.
	gidx, gval := sparse.Freeze(p.Generic).Raw()
	gen := appendU32(nil, uint32(len(gidx)))
	gen = appendI32s(gen, gidx)
	gen = appendF64s(gen, gval)
	add(secGeneric, gen)

	// Section 8: frozen mixture index — entity list, cumulative nnz
	// offsets, then all indices and all values concatenated. It is by
	// far the largest section, so it is allocated once at its exact
	// size.
	ents := make([]int32, len(p.Mixtures))
	cum := make([]uint32, len(p.Mixtures)+1)
	for i, en := range p.Mixtures {
		ents[i] = int32(en.Entity)
		cum[i+1] = cum[i] + uint32(en.Mixture.Len())
	}
	nnz := int(cum[len(p.Mixtures)])
	mix := make([]byte, 0, 4+4*len(ents)+4*len(cum)+(4+8)*nnz)
	mix = appendU32(mix, uint32(len(p.Mixtures)))
	mix = appendI32s(mix, ents)
	mix = appendU32s(mix, cum)
	for _, en := range p.Mixtures {
		idx, _ := en.Mixture.Raw()
		mix = appendI32s(mix, idx)
	}
	for _, en := range p.Mixtures {
		_, val := en.Mixture.Raw()
		mix = appendF64s(mix, val)
	}
	add(secMixtures, mix)

	// Assemble: header, table, table CRC, payloads.
	artifactLen := headerLen + tableEntry*len(secs) + 4
	offset := uint64(artifactLen)
	for _, s := range secs {
		artifactLen += len(s.payload)
	}
	out := make([]byte, 0, artifactLen)
	out = append(out, Magic...)
	out = appendU32(out, FormatVersion)
	out = appendU32(out, uint32(len(secs)))
	table := make([]byte, 0, tableEntry*len(secs))
	for _, s := range secs {
		table = appendU32(table, s.id)
		table = appendU32(table, 0) // flags, reserved
		table = le.AppendUint64(table, offset)
		table = le.AppendUint64(table, uint64(len(s.payload)))
		table = appendU32(table, crc32.ChecksumIEEE(s.payload))
		offset += uint64(len(s.payload))
	}
	out = append(out, table...)
	out = appendU32(out, crc32.ChecksumIEEE(table))
	for _, s := range secs {
		out = append(out, s.payload...)
	}
	return out, nil
}

func typeIDsAsInt32(ts []hin.TypeID) []int32 {
	out := make([]int32, len(ts))
	for i, t := range ts {
		out[i] = int32(t)
	}
	return out
}

func objectIDsAsInt32(ids []hin.ObjectID) []int32 {
	out := make([]int32, len(ids))
	for i, o := range ids {
		out[i] = int32(o)
	}
	return out
}

// WriteFile atomically writes the artifact: encode, write to a
// temporary file in the same directory, fsync, rename. A crash or
// concurrent reader never sees a half-written artifact — which is
// what makes `POST /v1/admin/reload` safe to point at a path a build
// pipeline is also writing.
func WriteFile(path string, p shine.Parts) (Info, error) {
	data, err := encode(p)
	if err != nil {
		return Info{}, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return Info{}, fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return Info{}, fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return Info{}, fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return Info{}, fmt.Errorf("snapshot: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Info{}, fmt.Errorf("snapshot: %w", err)
	}
	return infoFor(data, p), nil
}

// infoFor summarises an encoded artifact from its bytes and the parts
// it was built from. Version and section count come from the bytes,
// so a version-1 artifact read by this build reports itself as v1.
func infoFor(data []byte, p shine.Parts) Info {
	links := 0
	gp := p.Graph.Parts()
	for rel := 0; rel < len(gp.Adjs); rel += 2 {
		links += len(gp.Adjs[rel])
	}
	// Old artifacts carry no backend name; "pagerank" was the only
	// backend when they were written.
	centrality := p.Centrality
	if centrality == "" {
		centrality = p.Config.CentralityName()
	}
	return Info{
		FormatVersion:  le.Uint32(data[8:]),
		Checksum:       fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)),
		Bytes:          int64(len(data)),
		Sections:       int(le.Uint32(data[12:])),
		EntityType:     p.Graph.Schema().Type(p.EntityType).Name,
		Objects:        p.Graph.NumObjects(),
		Links:          links,
		Entities:       len(p.Popularity),
		Paths:          len(p.Paths),
		MixtureEntries: len(p.Mixtures),
		GenericSupport: p.Generic.Len(),
		Centrality:     centrality,
	}
}

package snapshot_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/metapath"
	"shine/internal/shine"
	"shine/internal/snapshot"
	"shine/internal/synth"
)

// fixture builds a miniature DBLP network, a small corpus over it and
// a model with non-uniform weights and a populated mixture index —
// every section of the artifact is exercised.
type fixture struct {
	graph *hin.Graph
	docs  *corpus.Corpus
	model *shine.Model
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	wei1 := b.MustAddObject(d.Author, "Wei Wang")
	wei2 := b.MustAddObject(d.Author, "Wei Wang (2)")
	rakesh := b.MustAddObject(d.Author, "Rakesh Kumar")
	p1 := b.MustAddObject(d.Paper, "p1")
	p2 := b.MustAddObject(d.Paper, "p2")
	p3 := b.MustAddObject(d.Paper, "p3")
	sigmod := b.MustAddObject(d.Venue, "SIGMOD")
	vldb := b.MustAddObject(d.Venue, "VLDB")
	mining := b.MustAddObject(d.Term, "mining")
	data := b.MustAddObject(d.Term, "data")
	y1999 := b.MustAddObject(d.Year, "1999")
	b.MustAddLink(d.Write, wei1, p1)
	b.MustAddLink(d.Write, rakesh, p1)
	b.MustAddLink(d.Write, wei1, p2)
	b.MustAddLink(d.Write, wei2, p3)
	b.MustAddLink(d.Publish, sigmod, p1)
	b.MustAddLink(d.Publish, vldb, p2)
	b.MustAddLink(d.Publish, vldb, p3)
	b.MustAddLink(d.Contain, p1, mining)
	b.MustAddLink(d.Contain, p2, data)
	b.MustAddLink(d.Contain, p3, data)
	b.MustAddLink(d.PublishedIn, p1, y1999)
	g := b.Build()

	docs := &corpus.Corpus{}
	docs.Add(corpus.NewDocument("d1", "Wei Wang", wei1, []hin.ObjectID{sigmod, mining, rakesh}))
	docs.Add(corpus.NewDocument("d2", "Wei Wang", wei2, []hin.ObjectID{vldb, data}))
	docs.Add(corpus.NewDocument("d3", "Rakesh Kumar", rakesh, []hin.ObjectID{sigmod, mining}))

	paths, err := metapath.ParseAll(d.Schema, []string{"A-P-V", "A-P-T", "A-P-A"})
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	cfg := shine.DefaultConfig()
	cfg.WalkCacheSize = 64
	m, err := shine.New(g, d.Author, paths, docs, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.SetWeights([]float64{5, 3, 2}); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	if err := m.PrecomputeMixtures(); err != nil {
		t.Fatalf("PrecomputeMixtures: %v", err)
	}
	return &fixture{graph: g, docs: docs, model: m}
}

// encodeFixture returns the bytes of the fixture model's artifact.
func encodeFixture(t testing.TB, f *fixture) []byte {
	t.Helper()
	return writeArtifact(t, f.model.Parts())
}

// writeArtifact writes p with WriteFile into a temporary directory and
// reads the artifact's bytes back.
func writeArtifact(t testing.TB, p shine.Parts) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.snap")
	if _, err := snapshot.WriteFile(path, p); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRoundTripBitIdentical is the golden acceptance test: a model
// restored from its artifact must produce Link output bit-identical
// to the in-memory model it was written from.
func TestRoundTripBitIdentical(t *testing.T) {
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
	for _, doc := range f.docs.Docs {
		r1, err1 := f.model.Link(doc)
		r2, err2 := m2.Link(doc)
		if err1 != nil || err2 != nil {
			t.Fatalf("doc %s: Link errors %v, %v", doc.ID, err1, err2)
		}
		if r1.Entity != r2.Entity {
			t.Errorf("doc %s: entity %d vs %d after snapshot", doc.ID, r1.Entity, r2.Entity)
		}
		if len(r1.Candidates) != len(r2.Candidates) {
			t.Fatalf("doc %s: %d vs %d candidates", doc.ID, len(r1.Candidates), len(r2.Candidates))
		}
		for i := range r1.Candidates {
			c1, c2 := r1.Candidates[i], r2.Candidates[i]
			if c1.Entity != c2.Entity {
				t.Errorf("doc %s cand %d: entity %d vs %d", doc.ID, i, c1.Entity, c2.Entity)
			}
			if math.Float64bits(c1.LogJoint) != math.Float64bits(c2.LogJoint) {
				t.Errorf("doc %s cand %d: log joint %x vs %x — not bit-identical", doc.ID, i,
					math.Float64bits(c1.LogJoint), math.Float64bits(c2.LogJoint))
			}
			if math.Float64bits(c1.Posterior) != math.Float64bits(c2.Posterior) {
				t.Errorf("doc %s cand %d: posterior %x vs %x — not bit-identical", doc.ID, i,
					math.Float64bits(c1.Posterior), math.Float64bits(c2.Posterior))
			}
		}
	}
	// The restored mixture index starts warm: linking above must not
	// have built a single mixture.
	if st := m2.MixtureStats(); st.Builds != 0 {
		t.Errorf("restored model built %d mixtures, index should have loaded warm", st.Builds)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := newFixture(t)
	a, b := encodeFixture(t, f), encodeFixture(t, f)
	if !bytes.Equal(a, b) {
		t.Error("two writes of the same model differ — artifacts must be deterministic")
	}
}

// TestBuildDeterministic: independent builds of one input — New,
// Learn, PrecomputeMixtures, WriteFile — at 1, 4 and 8 workers write
// byte-identical artifacts, so the worker count is invisible in every
// section: weights, popularity, the generic model and the mixtures.
// TestEncodeDeterministic writes one model twice, so it cannot see
// state that differs between builds, such as a wall time. The synth
// case is the 150-author dataset of the shine package's
// TestLearnDeterministicAcrossWorkers, large enough that the blocked
// reductions span many blocks.
func TestBuildDeterministic(t *testing.T) {
	f := newFixture(t)
	fp := f.model.Parts()
	net := synth.DefaultDBLPConfig()
	net.RegularAuthors = 150
	net.AmbiguousGroups = 4
	net.Topics = 4
	doc := synth.DefaultDocConfig()
	doc.NumDocs = 40
	ds, err := synth.BuildDataset(net, doc)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	d := ds.Data.Schema
	cases := []struct {
		name       string
		graph      *hin.Graph
		entityType hin.TypeID
		paths      []metapath.Path
		docs       *corpus.Corpus
	}{
		{"fixture", f.graph, fp.EntityType, fp.Paths, f.docs},
		{"synth", ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) []byte {
				cfg := shine.DefaultConfig()
				cfg.Workers = workers
				m, err := shine.New(tc.graph, tc.entityType, tc.paths, tc.docs, cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if _, err := m.Learn(tc.docs); err != nil {
					t.Fatalf("Learn: %v", err)
				}
				if err := m.PrecomputeMixtures(); err != nil {
					t.Fatalf("PrecomputeMixtures: %v", err)
				}
				return writeArtifact(t, m.Parts())
			}
			serial := build(1)
			for _, workers := range []int{4, 8} {
				if got := build(workers); !bytes.Equal(got, serial) {
					t.Errorf("workers=%d: %d bytes (crc %08x), serial build %d bytes (crc %08x)",
						workers, len(got), crc32.ChecksumIEEE(got), len(serial), crc32.ChecksumIEEE(serial))
				}
			}
		})
	}
}

// TestReadLegacyPRSeconds: artifacts written before the centrality
// wall time was dropped carry "prSeconds" in their meta section. They
// still read and serve the same links, and the restored model reports
// no centrality time, because loading ran none.
func TestReadLegacyPRSeconds(t *testing.T) {
	f := newFixture(t)
	data := encodeFixture(t, f)
	var meta map[string]json.RawMessage
	if err := json.Unmarshal(sectionPayload(t, data, 1), &meta); err != nil {
		t.Fatalf("decoding meta: %v", err)
	}
	if _, ok := meta["prSeconds"]; ok {
		t.Fatal("meta section still records the centrality wall time")
	}
	meta["prSeconds"] = json.RawMessage("1.25")
	legacyMeta, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.ReadBytes(replaceSection(t, data, 1, legacyMeta))
	if err != nil {
		t.Fatalf("ReadBytes(legacy): %v", err)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if got := m.Parts().PRSeconds; got != 0 {
		t.Errorf("restored PRSeconds = %v, want 0", got)
	}
	for _, doc := range f.docs.Docs {
		r1, err1 := f.model.Link(doc)
		r2, err2 := m.Link(doc)
		if err1 != nil || err2 != nil {
			t.Fatalf("doc %s: Link errors %v, %v", doc.ID, err1, err2)
		}
		if r1.Entity != r2.Entity || len(r1.Candidates) != len(r2.Candidates) {
			t.Fatalf("doc %s: entity %d of %d candidates vs %d of %d after legacy restore",
				doc.ID, r1.Entity, len(r1.Candidates), r2.Entity, len(r2.Candidates))
		}
		for i, c := range r1.Candidates {
			if math.Float64bits(c.Posterior) != math.Float64bits(r2.Candidates[i].Posterior) {
				t.Errorf("doc %s cand %d: posterior %v vs %v after legacy restore",
					doc.ID, i, c.Posterior, r2.Candidates[i].Posterior)
			}
		}
	}
}

// sectionPayload returns the payload of section id.
func sectionPayload(t *testing.T, data []byte, id uint32) []byte {
	t.Helper()
	count := int(leU32(data[12:]))
	for i := 0; i < count; i++ {
		row := headerLen + i*entryLen
		if leU32(data[row:]) == id {
			off, length := leU64(data[row+8:]), leU64(data[row+16:])
			return data[off : off+length]
		}
	}
	t.Fatalf("artifact has no section %d", id)
	return nil
}

// replaceSection rebuilds an artifact with section id's payload
// swapped for payload: later payloads shift, and the section and
// table CRCs are recomputed.
func replaceSection(t *testing.T, data []byte, id uint32, payload []byte) []byte {
	t.Helper()
	count := int(leU32(data[12:]))
	tableEnd := headerLen + entryLen*count
	out := slices.Clone(data[:tableEnd+4])
	var payloads [][]byte
	shift := 0
	for i := 0; i < count; i++ {
		row := headerLen + i*entryLen
		off, length := int(leU64(data[row+8:])), int(leU64(data[row+16:]))
		p := data[off : off+length]
		if leU32(data[row:]) == id {
			p = payload
		}
		le64Put(out[row+8:], uint64(off+shift))
		le64Put(out[row+16:], uint64(len(p)))
		binaryPutU32(out[row+24:], crc32.ChecksumIEEE(p))
		shift += len(p) - length
		payloads = append(payloads, p)
	}
	binaryPutU32(out[tableEnd:], crc32.ChecksumIEEE(out[headerLen:tableEnd]))
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

func TestWriteFileReadFile(t *testing.T) {
	f := newFixture(t)
	path := filepath.Join(t.TempDir(), "model.snap")
	info, err := snapshot.WriteFile(path, f.model.Parts())
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got := s.Info(); got != info {
		t.Errorf("Info mismatch:\nwrite: %+v\nread:  %+v", info, got)
	}
	if info.Checksum == "" || info.Objects != f.graph.NumObjects() || info.Paths != 3 {
		t.Errorf("implausible info: %+v", info)
	}
	if info.MixtureEntries == 0 {
		t.Error("no mixture entries persisted despite precompute")
	}
	if _, err := s.Model(); err != nil {
		t.Fatalf("Model: %v", err)
	}
}

// TestModelReleasesArtifactBuffer: nothing ReadBytes decodes aliases
// its input, so the artifact buffer is collectable once the model is
// built, while the model lives on.
func TestModelReleasesArtifactBuffer(t *testing.T) {
	data := encodeFixture(t, newFixture(t))
	freed := make(chan struct{})
	runtime.SetFinalizer(&data[0], func(*byte) { close(freed) })
	s, err := snapshot.ReadBytes(data)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	data = nil
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(m)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the artifact buffer is still reachable from the model built from it")
}

// TestModelLiveHeapBoundedByArtifact bounds what one model generation
// retains: a model read with ReadFile holds at most 1.25× its
// artifact's bytes of live heap. The artifact is mostly the frozen
// mixture index, which the model holds in the same flat arrays, so
// anything well above 1× is a decoding leftover kept alive. The ratio
// falls as the index grows: 1.16× at 150 authors, 1.10× at the 300
// used here, ~1.05× on the `shine gen` default network.
func TestModelLiveHeapBoundedByArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snap")
	info := writeSynthArtifact(t, path)
	before := liveHeap()
	s, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	m, err := s.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	s = nil
	held := float64(liveHeap()) - float64(before)
	runtime.KeepAlive(m)
	ratio := held / float64(info.Bytes)
	t.Logf("model holds %.0f KiB of live heap for a %d KiB artifact (%.2f×)", held/1024, info.Bytes/1024, ratio)
	if ratio > 1.25 {
		t.Errorf("model holds %.2f× its artifact's bytes of live heap, want at most 1.25×", ratio)
	}
}

// writeSynthArtifact builds a model over a 300-author synthetic
// network, precomputes its mixtures at the initial weights and writes
// it to path. Nothing of the model outlives the call.
func writeSynthArtifact(t *testing.T, path string) snapshot.Info {
	t.Helper()
	net := synth.DefaultDBLPConfig()
	net.RegularAuthors = 300
	doc := synth.DefaultDocConfig()
	doc.NumDocs = 40
	ds, err := synth.BuildDataset(net, doc)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	d := ds.Data.Schema
	m, err := shine.New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, shine.DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.PrecomputeMixtures(); err != nil {
		t.Fatalf("PrecomputeMixtures: %v", err)
	}
	info, err := snapshot.WriteFile(path, m.Parts())
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return info
}

// liveHeap collects and reads the heap the collection found live. The
// second collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func TestReadRejectsNewerVersion(t *testing.T) {
	f := newFixture(t)
	data := encodeFixture(t, f)
	binaryPutU32(data[8:], snapshot.FormatVersion+1)
	_, err := snapshot.ReadBytes(data)
	if !errors.Is(err, snapshot.ErrNewerVersion) {
		t.Errorf("newer-version artifact error = %v, want ErrNewerVersion", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	f := newFixture(t)
	data := encodeFixture(t, f)
	for _, cut := range []int{0, 7, 15, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := snapshot.ReadBytes(data[:cut]); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestReadRejectsBitFlips(t *testing.T) {
	f := newFixture(t)
	data := encodeFixture(t, f)
	// Flip one byte in every region: magic, version, table, payloads.
	for _, pos := range []int{0, 9, 20, len(data) / 3, len(data) / 2, len(data) - 1} {
		corrupted := append([]byte(nil), data...)
		corrupted[pos] ^= 0xFF
		if _, err := snapshot.ReadBytes(corrupted); err == nil {
			t.Errorf("bit flip at %d accepted", pos)
		}
	}
}

// TestReadRejectsReorderedSections swaps two section table entries
// (fixing the table CRC so only the ordering is wrong) — the reader
// must reject a shuffled table, not silently decode sections in the
// wrong roles.
func TestReadRejectsReorderedSections(t *testing.T) {
	f := newFixture(t)
	data := encodeFixture(t, f)
	const headerLen, entryLen = 16, 28
	count := int(leU32(data[12:]))
	if count < 2 {
		t.Fatal("artifact has fewer than 2 sections")
	}
	e0 := headerLen
	e1 := headerLen + entryLen
	tmp := make([]byte, entryLen)
	copy(tmp, data[e0:e0+entryLen])
	copy(data[e0:e0+entryLen], data[e1:e1+entryLen])
	copy(data[e1:e1+entryLen], tmp)
	tableEnd := headerLen + entryLen*count
	binaryPutU32(data[tableEnd:], crc32.ChecksumIEEE(data[headerLen:tableEnd]))
	if _, err := snapshot.ReadBytes(data); err == nil {
		t.Error("reordered section table accepted")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := snapshot.ReadFile(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if _, err := snapshot.WriteFile(path, f.model.Parts()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// Overwrite with a second snapshot; no temp debris may remain.
	if _, err := snapshot.WriteFile(path, f.model.Parts()); err != nil {
		t.Fatalf("WriteFile (overwrite): %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.snap" {
		t.Errorf("directory not clean after atomic writes: %v", entries)
	}
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func binaryPutU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

package shine

import (
	"math"
	"testing"

	"shine/internal/metapath"
	"shine/internal/synth"
)

// determinismDataset is a quick synthetic dataset for the golden
// worker-count tests: small enough that training three models stays
// fast, large enough that EM runs several iterations and the blocked
// reductions span many blocks.
func determinismDataset(t testing.TB) *synth.Dataset {
	t.Helper()
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
	return ds
}

// trainWithWorkers builds a fresh model over ds with the given worker
// count and runs one full Learn.
func trainWithWorkers(t *testing.T, ds *synth.Dataset, workers int) (*Model, *LearnStats) {
	t.Helper()
	d := ds.Data.Schema
	cfg := DefaultConfig()
	cfg.Workers = workers
	m, err := New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, cfg)
	if err != nil {
		t.Fatalf("New(workers=%d): %v", workers, err)
	}
	stats, err := m.Learn(ds.Corpus)
	if err != nil {
		t.Fatalf("Learn(workers=%d): %v", workers, err)
	}
	return m, stats
}

// sameBits reports bit-for-bit float equality — the determinism
// guarantee is exact, not approximate.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestLearnDeterministicAcrossWorkers is the golden determinism test:
// training serially (Workers=1) and with parallel fan-out (4, 8
// workers) must produce bit-identical objectives per EM iteration,
// bit-identical weight traces and identical link decisions. The
// byte-identical artifact across worker counts is checked by the
// snapshot package's TestBuildDeterministic.
func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	ds := determinismDataset(t)
	base, baseStats := trainWithWorkers(t, ds, 1)

	baseResults := linkAll(base, ds.Corpus.Docs, 1)

	for _, workers := range []int{4, 8} {
		m, stats := trainWithWorkers(t, ds, workers)

		if stats.EMIterations != baseStats.EMIterations {
			t.Fatalf("workers=%d: %d EM iterations, serial ran %d",
				workers, stats.EMIterations, baseStats.EMIterations)
		}
		if stats.GDIterations != baseStats.GDIterations {
			t.Errorf("workers=%d: %d GD iterations, serial ran %d",
				workers, stats.GDIterations, baseStats.GDIterations)
		}
		for it := range baseStats.Objective {
			if !sameBits(stats.Objective[it], baseStats.Objective[it]) {
				t.Errorf("workers=%d iteration %d: objective %v != serial %v",
					workers, it, stats.Objective[it], baseStats.Objective[it])
			}
		}
		for it := range baseStats.Weights {
			for k := range baseStats.Weights[it] {
				if !sameBits(stats.Weights[it][k], baseStats.Weights[it][k]) {
					t.Errorf("workers=%d iteration %d: weight[%d] %v != serial %v",
						workers, it, k, stats.Weights[it][k], baseStats.Weights[it][k])
				}
			}
		}
		w, bw := m.Weights(), base.Weights()
		for k := range bw {
			if !sameBits(w[k], bw[k]) {
				t.Errorf("workers=%d: final weight[%d] %v != serial %v", workers, k, w[k], bw[k])
			}
		}

		results := linkAll(m, ds.Corpus.Docs, workers)
		for i := range baseResults {
			if results[i].Result.Entity != baseResults[i].Result.Entity {
				t.Errorf("workers=%d doc %d: linked to %d, serial linked to %d",
					workers, i, results[i].Result.Entity, baseResults[i].Result.Entity)
			}
			for ci := range baseResults[i].Result.Candidates {
				got, want := results[i].Result.Candidates[ci], baseResults[i].Result.Candidates[ci]
				if got.Entity != want.Entity || !sameBits(got.Posterior, want.Posterior) ||
					!sameBits(got.LogJoint, want.LogJoint) {
					t.Errorf("workers=%d doc %d candidate %d: %+v != serial %+v",
						workers, i, ci, got, want)
				}
			}
		}
	}
}

// TestLearnDeterministicWithSGD covers the stochastic M-step: batch
// selection uses a fixed-seed rng on the main goroutine, so SGD
// training must also be reproducible across worker counts.
func TestLearnDeterministicWithSGD(t *testing.T) {
	ds := determinismDataset(t)
	d := ds.Data.Schema
	train := func(workers int) []float64 {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.SGDBatch = 10
		cfg.MaxEMIterations = 5
		m, err := New(ds.Data.Graph, d.Author, metapath.DBLPPaperPaths(d), ds.Corpus, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := m.Learn(ds.Corpus); err != nil {
			t.Fatalf("Learn: %v", err)
		}
		return m.Weights()
	}
	serial := train(1)
	for _, workers := range []int{3, 8} {
		w := train(workers)
		for k := range serial {
			if !sameBits(w[k], serial[k]) {
				t.Errorf("SGD workers=%d: weight[%d] %v != serial %v", workers, k, w[k], serial[k])
			}
		}
	}
}

package shine

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// stressModel runs Learn concurrently with batch linking on one
// shared model — the serving pattern the concurrency contract
// promises: readers snapshot the weight vector while the learner
// installs new ones, and every walk goes through the shared cache.
// Run under -race (verify.sh does), this is the race detector's view
// of the whole parallel pipeline.
func stressModel(t *testing.T, cacheSize int) {
	t.Helper()
	f := newFixture(t)
	m := newModel(t, f, func(c *Config) {
		c.WalkCacheSize = cacheSize
		c.Workers = 4
		c.MaxEMIterations = 3
	})

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.Learn(f.corpus); err != nil {
			errc <- fmt.Errorf("Learn: %w", err)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, sr := range linkAll(m, f.corpus.Docs, 4) {
					if sr.Err != nil {
						errc <- fmt.Errorf("LinkStream round %d doc %d: %w", round, sr.Seq, sr.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The weight vector the readers raced against must still be a
	// valid simplex point.
	sum := 0.0
	for k, w := range m.Weights() {
		if w < 0 || math.IsNaN(w) {
			t.Fatalf("weight[%d] = %v after concurrent Learn", k, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v after concurrent Learn", sum)
	}

	res, err := m.Link(f.docA)
	if err != nil {
		t.Fatalf("Link after stress: %v", err)
	}
	if res.Entity != f.ids["w1"] {
		t.Errorf("docA linked to %d after stress, want %d", res.Entity, f.ids["w1"])
	}
}

// TestConcurrentLearnAndLinkTinyCache uses a cache far below the
// working set, so the single-stripe LRU churns: every goroutine
// contends on the same shard's lock and eviction list.
func TestConcurrentLearnAndLinkTinyCache(t *testing.T) {
	stressModel(t, 8)
}

// TestConcurrentLearnAndLinkShardedCache uses a sharded cache (>=
// 1024 entries selects 16 stripes), exercising the striped-lock
// lookup/store/eviction paths under the same concurrent load.
func TestConcurrentLearnAndLinkShardedCache(t *testing.T) {
	stressModel(t, 4096)
}

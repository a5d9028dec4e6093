package shine

import (
	"runtime"
	"strings"
	"testing"
)

func TestValidateWorkers(t *testing.T) {
	cases := []struct {
		workers int
		wantErr bool
	}{
		{0, true},
		{-3, true},
		{1, false},
		{64, false},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Workers = c.workers
		err := cfg.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("Validate(Workers=%d) error = %v, want error = %v", c.workers, err, c.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "Workers") {
			t.Errorf("Validate(Workers=%d) error %q does not name the field", c.workers, err)
		}
	}
}

func TestDefaultConfigWorkersIsGOMAXPROCS(t *testing.T) {
	if got, want := DefaultConfig().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("DefaultConfig().Workers = %d, want GOMAXPROCS = %d", got, want)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// TestLearnClampsMutatedWorkers guards the in-package escape hatch:
// New rejects a non-positive Workers, but if cfg is mutated after
// construction the pipeline must clamp to GOMAXPROCS rather than
// spawn zero workers and deadlock.
func TestLearnClampsMutatedWorkers(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, func(c *Config) { c.MaxEMIterations = 2 })
	m.cfg.Workers = -2
	if got := m.workers(); got < 1 {
		t.Fatalf("workers() = %d with mutated negative Workers", got)
	}
	if _, err := m.Learn(f.corpus); err != nil {
		t.Fatalf("Learn with mutated negative Workers: %v", err)
	}
}

// TestLinkStreamClampsWorkers: negative and zero worker requests
// degrade to GOMAXPROCS, and worker counts beyond the document count
// must not stall the pipeline; every clamped stream still matches Link.
func TestLinkStreamClampsWorkers(t *testing.T) {
	f := newFixture(t)
	m := newModel(t, f, nil)
	want := linkEach(t, m, f.corpus.Docs)
	for _, workers := range []int{-7, 0, 1000} {
		requireStreamMatchesLink(t, m, f.corpus.Docs, want, workers)
	}
}

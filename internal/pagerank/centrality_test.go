package pagerank

import (
	"math"
	"strings"
	"testing"

	"shine/internal/hin"
)

func TestNewCentralityRegistry(t *testing.T) {
	d := hin.NewDBLPSchema()
	for _, name := range CentralityNames() {
		c, err := NewCentrality(name, d.Author)
		if err != nil {
			t.Fatalf("NewCentrality(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("NewCentrality(%q).Name() = %q", name, c.Name())
		}
		if !ValidCentrality(name) {
			t.Errorf("ValidCentrality(%q) = false", name)
		}
	}
	if _, err := NewCentrality("closeness", d.Author); err == nil {
		t.Error("unknown backend accepted")
	} else if !strings.Contains(err.Error(), "closeness") {
		t.Errorf("error %q does not name the offending backend", err)
	}
	if ValidCentrality("") || ValidCentrality("closeness") {
		t.Error("ValidCentrality accepted a non-backend")
	}
	if DefaultCentrality != "pagerank" {
		t.Errorf("DefaultCentrality = %q", DefaultCentrality)
	}
}

// TestCentralityGoldenDeterminismAcrossWorkers is the pull kernel's
// determinism harness applied to every backend: workers 1 is the
// golden run, and workers 4/8 must reproduce every score bit for bit,
// along with the iteration metadata.
func TestCentralityGoldenDeterminismAcrossWorkers(t *testing.T) {
	g := randomDBLP(t, 99, 60)
	d := hin.NewDBLPSchema()
	for _, name := range CentralityNames() {
		t.Run(name, func(t *testing.T) {
			c, err := NewCentrality(name, d.Author)
			if err != nil {
				t.Fatalf("NewCentrality: %v", err)
			}
			opts := DefaultOptions()
			opts.Workers = 1
			golden, err := c.Compute(g, opts)
			if err != nil {
				t.Fatalf("Compute(workers=1): %v", err)
			}
			for _, workers := range []int{4, 8} {
				opts.Workers = workers
				res, err := c.Compute(g, opts)
				if err != nil {
					t.Fatalf("Compute(workers=%d): %v", workers, err)
				}
				if res.Iterations != golden.Iterations || res.Converged != golden.Converged {
					t.Fatalf("workers=%d: metadata (%d, %v) differs from golden (%d, %v)",
						workers, res.Iterations, res.Converged, golden.Iterations, golden.Converged)
				}
				if math.Float64bits(res.Delta) != math.Float64bits(golden.Delta) {
					t.Fatalf("workers=%d: delta %x differs from golden %x",
						workers, math.Float64bits(res.Delta), math.Float64bits(golden.Delta))
				}
				for v := range golden.Scores {
					if math.Float64bits(res.Scores[v]) != math.Float64bits(golden.Scores[v]) {
						t.Fatalf("workers=%d: score[%d] = %x, golden %x — not bit-identical",
							workers, v, math.Float64bits(res.Scores[v]), math.Float64bits(golden.Scores[v]))
					}
				}
			}
		})
	}
}

// TestCentralityScoresSumToOne: every backend returns a probability
// vector over all objects.
func TestCentralityScoresSumToOne(t *testing.T) {
	g := randomDBLP(t, 7, 40)
	d := hin.NewDBLPSchema()
	for _, name := range CentralityNames() {
		c, err := NewCentrality(name, d.Author)
		if err != nil {
			t.Fatalf("NewCentrality(%q): %v", name, err)
		}
		res, err := c.Compute(g, DefaultOptions())
		if err != nil {
			t.Fatalf("%s.Compute: %v", name, err)
		}
		if len(res.Scores) != g.NumObjects() {
			t.Fatalf("%s: %d scores for %d objects", name, len(res.Scores), g.NumObjects())
		}
		sum := 0.0
		for v, s := range res.Scores {
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("%s: invalid score %v at %d", name, s, v)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: scores sum to %v, want 1", name, sum)
		}
	}
}

func TestDegreeCentralityProportionalToDegrees(t *testing.T) {
	_, g, hub, leaf := starDBLP(t, 5)
	c, _ := NewCentrality("degree", hin.NewDBLPSchema().Author)
	res, err := c.Compute(g, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Errorf("degree reported iterations=%d converged=%v, want single-pass convergence",
			res.Iterations, res.Converged)
	}
	deg := g.TotalDegrees()
	total := 0.0
	for _, dv := range deg {
		total += float64(dv)
	}
	for v := range res.Scores {
		want := float64(deg[v]) / total
		if math.Abs(res.Scores[v]-want) > 1e-15 {
			t.Fatalf("score[%d] = %v, want %v (degree %d / %v)", v, res.Scores[v], want, deg[v], total)
		}
	}
	if res.Scores[hub] <= res.Scores[leaf] {
		t.Errorf("hub (5 papers) scored %v <= leaf (1 paper) %v", res.Scores[hub], res.Scores[leaf])
	}
}

func TestDegreeCentralityLinklessGraphIsUniform(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	b.MustAddObject(d.Author, "A1")
	b.MustAddObject(d.Author, "A2")
	g := b.Build()
	c, _ := NewCentrality("degree", d.Author)
	res, err := c.Compute(g, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	for v, s := range res.Scores {
		if s != 0.5 {
			t.Errorf("score[%d] = %v, want 0.5", v, s)
		}
	}
}

func TestHITSHubOutranksLeaf(t *testing.T) {
	_, g, hub, leaf := starDBLP(t, 8)
	c, _ := NewCentrality("hits", hin.NewDBLPSchema().Author)
	res, err := c.Compute(g, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !res.Converged {
		t.Fatalf("HITS did not converge in %d iterations (delta %v)", res.Iterations, res.Delta)
	}
	if res.Scores[hub] <= res.Scores[leaf] {
		t.Errorf("hub authority %v <= leaf authority %v", res.Scores[hub], res.Scores[leaf])
	}
}

func TestHITSLinklessGraphIsUniform(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	b.MustAddObject(d.Author, "A1")
	b.MustAddObject(d.Author, "A2")
	b.MustAddObject(d.Venue, "V")
	g := b.Build()
	c, _ := NewCentrality("hits", d.Author)
	res, err := c.Compute(g, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !res.Converged {
		t.Error("linkless graph should report convergence")
	}
	for v, s := range res.Scores {
		if math.Abs(s-1.0/3) > 1e-15 {
			t.Errorf("score[%d] = %v, want 1/3", v, s)
		}
	}
}

// TestPPRTeleportRestrictedToEntityType: objects unreachable from the
// entity set get exactly zero mass — an isolated term receives neither
// teleport (wrong type) nor pull mass (no in-links) — while isolated
// entities still receive their teleport share.
func TestPPRTeleportRestrictedToEntityType(t *testing.T) {
	g := randomDBLP(t, 11, 30)
	d := hin.NewDBLPSchema()
	c, _ := NewCentrality("ppr", d.Author)
	res, err := c.Compute(g, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	sawIsolatedTerm, sawIsolatedAuthor := false, false
	deg := g.TotalDegrees()
	for v := range res.Scores {
		if deg[v] != 0 {
			continue
		}
		switch g.TypeOf(hin.ObjectID(v)) {
		case d.Term:
			sawIsolatedTerm = true
			if res.Scores[v] != 0 {
				t.Errorf("isolated term %d has score %v, want exactly 0", v, res.Scores[v])
			}
		case d.Author:
			sawIsolatedAuthor = true
			if res.Scores[v] <= 0 {
				t.Errorf("isolated author %d has score %v, want > 0 (teleport mass)", v, res.Scores[v])
			}
		}
	}
	if !sawIsolatedTerm || !sawIsolatedAuthor {
		t.Fatalf("fixture lost its isolated objects (term=%v author=%v)", sawIsolatedTerm, sawIsolatedAuthor)
	}
}

func TestPPRNoEntitiesOfType(t *testing.T) {
	d, g, _, _ := starDBLP(t, 2)
	c, _ := NewCentrality("ppr", d.Term) // no term objects in starDBLP
	if _, err := c.Compute(g, DefaultOptions()); err == nil {
		t.Error("empty teleport set accepted")
	}
}

// TestPPRRefineMatchesCold: ppr warm-started through Options.Warm
// converges to the cold fixed point.
func TestPPRRefineMatchesCold(t *testing.T) {
	d := hin.NewDBLPSchema()
	c, _ := NewCentrality("ppr", d.Author)

	g1 := randomDBLP(t, 21, 40)
	prev, err := c.Compute(g1, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute(g1): %v", err)
	}
	// A different seed reshuffles edges; the warm start must still
	// land on the new graph's own fixed point.
	g2 := randomDBLP(t, 22, 40)
	cold, err := c.Compute(g2, DefaultOptions())
	if err != nil {
		t.Fatalf("Compute(g2): %v", err)
	}
	opts := DefaultOptions()
	opts.Warm = prev.Scores
	warm, err := c.Compute(g2, opts)
	if err != nil {
		t.Fatalf("warm Compute: %v", err)
	}
	for v := range cold.Scores {
		if math.Abs(cold.Scores[v]-warm.Scores[v]) > 1e-9 {
			t.Fatalf("score[%d]: cold %v vs warm %v", v, cold.Scores[v], warm.Scores[v])
		}
	}
}

// TestCentralityEmptyGraph: every backend rejects an empty graph
// rather than dividing by zero.
func TestCentralityEmptyGraph(t *testing.T) {
	d := hin.NewDBLPSchema()
	g := hin.NewBuilder(d.Schema).Build()
	for _, name := range CentralityNames() {
		c, _ := NewCentrality(name, d.Author)
		if _, err := c.Compute(g, DefaultOptions()); err == nil {
			t.Errorf("%s accepted an empty graph", name)
		}
	}
}

// TestOptionsRejectNaN pins the NaN validation fix: NaN fails both
// halves of a range comparison, so without explicit IsNaN checks a
// NaN Lambda or Tolerance would configure the kernel.
func TestOptionsRejectNaN(t *testing.T) {
	g := randomDBLP(t, 3, 10)
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"lambda NaN", func(o *Options) { o.Lambda = math.NaN() }},
		{"tolerance NaN", func(o *Options) { o.Tolerance = math.NaN() }},
		{"tolerance +Inf", func(o *Options) { o.Tolerance = math.Inf(1) }},
	}
	d := hin.NewDBLPSchema()
	for _, tc := range cases {
		opts := DefaultOptions()
		tc.mutate(&opts)
		if _, err := Compute(g, opts); err == nil {
			t.Errorf("Compute accepted %s", tc.name)
		}
		for _, name := range CentralityNames() {
			c, _ := NewCentrality(name, d.Author)
			if _, err := c.Compute(g, opts); err == nil {
				t.Errorf("%s accepted %s", name, tc.name)
			}
		}
	}
}

func TestEntityPopularityNilScores(t *testing.T) {
	d, g, _, _ := starDBLP(t, 2)
	if _, err := EntityPopularity(g, nil, d.Author); err == nil {
		t.Error("nil score vector accepted")
	}
}

// Package shine implements the paper's probabilistic entity linking
// model: P(m, d, e) = η · P(e) · P(d|e), combining the entity
// popularity model (PageRank over the whole network, Section 3.1)
// with the entity object model (meta-path constrained random walk
// mixtures smoothed by a generic corpus model, Section 3.2), and the
// unsupervised EM learning algorithm for the meta-path weights
// (Section 4, Algorithm 1).
package shine

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"shine/internal/pagerank"
)

// PopularityMode selects the entity popularity model P(e).
type PopularityMode int

const (
	// PopularityPageRank is the paper's entity popularity model
	// (Formula 7): PageRank scores normalised over the entity set.
	PopularityPageRank PopularityMode = iota
	// PopularityUniform is the uniform model P(e) = 1/|E| (Formula
	// 5), used by the paper's "-eom" ablations.
	PopularityUniform
)

// String names the mode for logs and flags.
func (m PopularityMode) String() string {
	switch m {
	case PopularityPageRank:
		return "pagerank"
	case PopularityUniform:
		return "uniform"
	default:
		return fmt.Sprintf("PopularityMode(%d)", int(m))
	}
}

// Config holds all model and learning hyper-parameters. Start from
// DefaultConfig; the zero value is invalid.
type Config struct {
	// Theta balances the entity-specific object model against the
	// generic object model (Formula 9). The paper sets θ = 0.2.
	Theta float64
	// Eta is the constant P(m|e) (Formula 4). It cancels in every
	// argmax and posterior, but is kept so reported joint scores match
	// the paper's formulation.
	Eta float64
	// Popularity selects the P(e) model.
	Popularity PopularityMode
	// Centrality names the pagerank.Centrality backend that computes
	// the raw importance scores under PopularityPageRank mode —
	// "pagerank" (the paper's Formula 6), "degree", "hits", or "ppr"
	// (type-personalized PageRank). Empty selects "pagerank", which
	// also keeps snapshots written before the field existed
	// loading unchanged. Ignored under PopularityUniform.
	Centrality string
	// PageRank configures the popularity computation (λ = 0.2 in the
	// paper). All centrality backends share these options: Tolerance
	// and MaxIterations govern HITS's alternating sweeps too, while
	// single-pass backends (degree) only validate them.
	PageRank pagerank.Options

	// LearningRate is the gradient ascent step α (Formula 23). The
	// paper uses a fixed 3e-6 tuned to its corpus; a non-positive
	// value selects backtracking line search, which adapts the step to
	// guarantee the objective never decreases (the property the paper
	// tunes α for).
	LearningRate float64
	// MaxEMIterations bounds the outer EM loop.
	MaxEMIterations int
	// MaxGDIterations bounds the inner gradient ascent loop per
	// M-step.
	MaxGDIterations int
	// EMTolerance stops the EM loop when the L1 change of the weight
	// vector falls below it ("until the meta-path weight vector
	// stabilizes within some threshold").
	EMTolerance float64
	// GDTolerance stops the inner loop when the relative objective
	// improvement falls below it.
	GDTolerance float64
	// SGDBatch, when positive, switches the M-step to stochastic
	// gradient ascent over batches of this many mentions — the
	// large-scale variant Section 4 suggests. Zero uses full batches.
	SGDBatch int

	// Workers is the number of goroutines the offline and training
	// pipelines fan out to: the whole-network PageRank popularity
	// computation (unless PageRank.Workers overrides it), corpus
	// preparation (the per-mention meta-path walk precompute), the
	// E-step posterior pass, and the blocked objective/gradient
	// reductions of the M-step. Every reduction merges per-block
	// partials in a fixed order, so the learned weights and PageRank
	// scores are bit-for-bit identical for every Workers value.
	// DefaultConfig sets GOMAXPROCS. Workers is an execution knob,
	// not learned state: it is excluded from snapshot artifacts, and a
	// restored model runs with the host's GOMAXPROCS.
	Workers int `json:"-"`

	// WalkCacheSize bounds the meta-path walk cache.
	WalkCacheSize int
	// WalkPruning, when positive, truncates each intermediate random
	// walk distribution to its largest WalkPruning entries — an
	// approximation that bounds walk cost on networks with hub
	// objects. Zero computes exact walks (the paper's setting).
	WalkPruning int
	// ProbFloor is the smallest probability used inside logarithms,
	// guarding against documents containing objects unseen in the
	// generic model.
	ProbFloor float64
}

// DefaultConfig returns the paper's experimental configuration:
// θ = 0.2, PageRank popularity with λ = 0.2, backtracking gradient
// ascent.
func DefaultConfig() Config {
	return Config{
		Theta:           0.2,
		Eta:             1.0,
		Popularity:      PopularityPageRank,
		Centrality:      pagerank.DefaultCentrality,
		PageRank:        pagerank.DefaultOptions(),
		LearningRate:    0, // backtracking
		MaxEMIterations: 20,
		MaxGDIterations: 50,
		EMTolerance:     1e-4,
		GDTolerance:     1e-7,
		SGDBatch:        0,
		Workers:         runtime.GOMAXPROCS(0),
		WalkCacheSize:   metapathCacheDefault,
		ProbFloor:       1e-12,
	}
}

const metapathCacheDefault = 65536

// CentralityName resolves the configured centrality backend,
// defaulting the empty string to "pagerank" so configs decoded from
// artifacts saved before the field existed keep their old behaviour.
func (c Config) CentralityName() string {
	if c.Centrality == "" {
		return pagerank.DefaultCentrality
	}
	return c.Centrality
}

// Validate reports the first configuration problem, or nil. Every
// float field is checked for NaN explicitly: NaN fails both halves of
// a range test like `x <= 0 || x >= 1`, so without the explicit test a
// NaN would sail through and poison downstream arithmetic.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.Theta) || c.Theta <= 0 || c.Theta >= 1:
		return fmt.Errorf("shine: theta %v outside (0, 1)", c.Theta)
	case math.IsNaN(c.Eta) || c.Eta <= 0 || c.Eta > 1:
		return fmt.Errorf("shine: eta %v outside (0, 1]", c.Eta)
	case c.Popularity != PopularityPageRank && c.Popularity != PopularityUniform:
		return fmt.Errorf("shine: unknown popularity mode %d", c.Popularity)
	case c.Centrality != "" && !pagerank.ValidCentrality(c.Centrality):
		return fmt.Errorf("shine: unknown centrality backend %q (have %s)",
			c.Centrality, strings.Join(pagerank.CentralityNames(), ", "))
	case math.IsNaN(c.LearningRate) || math.IsInf(c.LearningRate, 0):
		return fmt.Errorf("shine: LearningRate %v is not finite", c.LearningRate)
	case c.MaxEMIterations < 1:
		return fmt.Errorf("shine: MaxEMIterations %d must be positive", c.MaxEMIterations)
	case c.MaxGDIterations < 1:
		return fmt.Errorf("shine: MaxGDIterations %d must be positive", c.MaxGDIterations)
	case math.IsNaN(c.EMTolerance) || math.IsInf(c.EMTolerance, 0) || c.EMTolerance <= 0:
		return fmt.Errorf("shine: EMTolerance %v must be positive and finite", c.EMTolerance)
	case math.IsNaN(c.GDTolerance) || math.IsInf(c.GDTolerance, 0) || c.GDTolerance <= 0:
		return fmt.Errorf("shine: GDTolerance %v must be positive and finite", c.GDTolerance)
	case c.SGDBatch < 0:
		return fmt.Errorf("shine: SGDBatch %d negative", c.SGDBatch)
	case c.Workers < 1:
		return fmt.Errorf("shine: Workers %d must be positive (DefaultConfig uses GOMAXPROCS)", c.Workers)
	case c.WalkPruning < 0:
		return fmt.Errorf("shine: WalkPruning %d negative", c.WalkPruning)
	case math.IsNaN(c.ProbFloor) || c.ProbFloor <= 0 || c.ProbFloor >= 1e-3:
		return fmt.Errorf("shine: ProbFloor %v outside (0, 1e-3)", c.ProbFloor)
	}
	// The nested centrality options carry their own float fields;
	// validate them here so a NaN λ fails at config time, not at the
	// first popularity computation.
	if err := c.PageRank.Validate(); err != nil {
		return fmt.Errorf("shine: %w", err)
	}
	return nil
}

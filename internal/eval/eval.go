// Package eval provides the evaluation harness: the accuracy measure
// used throughout the paper's Section 5 ("the number of correctly
// linked entity mentions divided by the total number of all
// mentions"), a uniform Linker interface over SHINE and the
// baselines, and timing helpers for the scalability experiments.
package eval

import (
	"fmt"
	"time"

	"shine/internal/corpus"
	"shine/internal/hin"
)

// Linker resolves one document's mention to an entity. Both baselines
// implement it directly; shine.Model is adapted with LinkerFunc.
type Linker interface {
	Link(doc *corpus.Document) (hin.ObjectID, error)
}

// LinkerFunc adapts a function to the Linker interface.
type LinkerFunc func(doc *corpus.Document) (hin.ObjectID, error)

// Link implements Linker.
func (f LinkerFunc) Link(doc *corpus.Document) (hin.ObjectID, error) { return f(doc) }

// Summary is the outcome of evaluating a linker on a corpus.
type Summary struct {
	// Total is the number of documents evaluated.
	Total int
	// Linked is the number of mentions the linker produced an entity
	// for.
	Linked int
	// Correct is the number of mentions linked to their gold entity.
	Correct int
	// Accuracy is Correct / Total.
	Accuracy float64
	// Elapsed is the wall-clock time of the whole evaluation.
	Elapsed time.Duration
}

// String renders the summary in the style of the paper's tables.
func (s Summary) String() string {
	return fmt.Sprintf("%d/%d correct, accuracy %.3f (%.2fs)",
		s.Correct, s.Total, s.Accuracy, s.Elapsed.Seconds())
}

// Evaluate runs the linker over every document and scores it against
// the gold labels. Documents with unknown gold (hin.NoObject) are
// rejected: accuracy over them is undefined.
func Evaluate(l Linker, c *corpus.Corpus) (Summary, error) {
	if c.Len() == 0 {
		return Summary{}, fmt.Errorf("eval: empty corpus")
	}
	start := time.Now()
	s := Summary{Total: c.Len()}
	for _, doc := range c.Docs {
		if doc.Gold == hin.NoObject {
			return Summary{}, fmt.Errorf("eval: document %s has no gold label", doc.ID)
		}
		e, err := l.Link(doc)
		if err != nil {
			continue // unlinked mentions count as incorrect
		}
		s.Linked++
		if e == doc.Gold {
			s.Correct++
		}
	}
	s.Accuracy = float64(s.Correct) / float64(s.Total)
	s.Elapsed = time.Since(start)
	return s, nil
}

// NILSummary extends Summary with the NIL-specific counts of an
// evaluation where gold labels may be hin.NoObject (the mention's
// entity is absent from the network).
type NILSummary struct {
	Summary
	// GoldNIL is how many documents have a NIL gold label.
	GoldNIL int
	// CorrectNIL is how many NIL documents were predicted NIL.
	CorrectNIL int
	// FalseNIL is how many in-network mentions were predicted NIL.
	FalseNIL int
}

// EvaluateNIL scores a NIL-capable linker: a prediction of
// hin.NoObject means "not in the network", and a gold label of
// hin.NoObject means the mention truly has no network entity. Linker
// errors still count as incorrect (and as unlinked).
func EvaluateNIL(l Linker, c *corpus.Corpus) (NILSummary, error) {
	if c.Len() == 0 {
		return NILSummary{}, fmt.Errorf("eval: empty corpus")
	}
	start := time.Now()
	s := NILSummary{Summary: Summary{Total: c.Len()}}
	for _, doc := range c.Docs {
		if doc.Gold == hin.NoObject {
			s.GoldNIL++
		}
		e, err := l.Link(doc)
		if err != nil {
			continue
		}
		s.Linked++
		switch {
		case e == doc.Gold && e == hin.NoObject:
			s.Correct++
			s.CorrectNIL++
		case e == doc.Gold:
			s.Correct++
		case e == hin.NoObject:
			s.FalseNIL++
		}
	}
	s.Accuracy = float64(s.Correct) / float64(s.Total)
	s.Elapsed = time.Since(start)
	return s, nil
}

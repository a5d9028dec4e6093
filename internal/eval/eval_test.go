package eval

import (
	"errors"
	"strings"
	"testing"

	"shine/internal/corpus"
	"shine/internal/hin"
)

func doc(id string, gold hin.ObjectID) *corpus.Document {
	return corpus.NewDocument(id, "Some Name", gold, nil)
}

func TestEvaluate(t *testing.T) {
	c := &corpus.Corpus{}
	c.Add(doc("a", 1))
	c.Add(doc("b", 2))
	c.Add(doc("c", 3))

	// A linker that gets a and b right and fails on c.
	l := LinkerFunc(func(d *corpus.Document) (hin.ObjectID, error) {
		switch d.ID {
		case "a":
			return 1, nil
		case "b":
			return 2, nil
		default:
			return hin.NoObject, errors.New("no candidates")
		}
	})
	s, err := Evaluate(l, c)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if s.Total != 3 || s.Linked != 2 || s.Correct != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.Accuracy != 2.0/3 {
		t.Errorf("Accuracy = %v", s.Accuracy)
	}
	if !strings.Contains(s.String(), "2/3") {
		t.Errorf("String = %q", s.String())
	}
}

func TestEvaluateErrors(t *testing.T) {
	l := LinkerFunc(func(d *corpus.Document) (hin.ObjectID, error) { return 1, nil })
	if _, err := Evaluate(l, &corpus.Corpus{}); err == nil {
		t.Error("empty corpus accepted")
	}
	c := &corpus.Corpus{}
	c.Add(doc("a", hin.NoObject))
	if _, err := Evaluate(l, c); err == nil {
		t.Error("unlabelled document accepted")
	}
}

func TestEvaluateNIL(t *testing.T) {
	c := &corpus.Corpus{}
	c.Add(doc("in-correct", 1))             // predicted 1: correct
	c.Add(doc("in-falsenil", 2))            // predicted NIL: false NIL
	c.Add(doc("nil-correct", hin.NoObject)) // predicted NIL: correct NIL
	c.Add(doc("nil-wrong", hin.NoObject))   // predicted 5: wrong

	l := LinkerFunc(func(d *corpus.Document) (hin.ObjectID, error) {
		switch d.ID {
		case "in-correct":
			return 1, nil
		case "in-falsenil", "nil-correct":
			return hin.NoObject, nil
		default:
			return 5, nil
		}
	})
	s, err := EvaluateNIL(l, c)
	if err != nil {
		t.Fatalf("EvaluateNIL: %v", err)
	}
	if s.Total != 4 || s.Correct != 2 || s.GoldNIL != 2 || s.CorrectNIL != 1 || s.FalseNIL != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.Accuracy != 0.5 {
		t.Errorf("Accuracy = %v", s.Accuracy)
	}
	if _, err := EvaluateNIL(l, &corpus.Corpus{}); err == nil {
		t.Error("empty corpus accepted")
	}
}

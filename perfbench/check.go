package main

import (
	"fmt"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/prover"
	"repro/internal/xmltree"
)

// bruteBound is the bounded search that must find no witness for a
// random corpus spec the checker calls inconsistent: every tree of at
// most five element nodes within the shape and assignment budgets.
var bruteBound = bruteforce.Options{MaxNodes: 5, MaxShapes: 20000, MaxPartitions: 20000}

// answer is what the checker said about one input.
type answer struct {
	verdict consistency.Verdict
	cert    *certificate.Certificate
	witness string
	// core and derivation are set by Explain.
	explained  bool
	core       []int
	derivation []prover.Step
}

// parseInternal parses an input with the repository's own parsers, so
// the known-answer checks evaluate against an independent copy of the
// specification, not the checker's.
func parseInternal(s spec) (*dtd.DTD, *constraint.Set, error) {
	d, err := dtd.Parse(s.dtd)
	if err != nil {
		return nil, nil, err
	}
	set, err := constraint.ParseSet(s.keys)
	if err != nil {
		return nil, nil, err
	}
	return d, set, nil
}

// checkAnswer checks one answer against what is known without the
// checker under test: the expected verdict when the input has one, the
// certificate re-verified by evaluation, the witness re-validated
// against the DTD and the constraints, bounded search finding no
// document for an inconsistent random spec, and an explain core that
// is itself inconsistent. It returns the time the certificate
// verification took (zero when the verdict carries none).
func checkAnswer(s spec, a answer) (time.Duration, error) {
	if s.expect != consistency.Unknown && a.verdict != consistency.Unknown && a.verdict != s.expect {
		return 0, fmt.Errorf("%s: verdict %v, known answer %v", s.name, a.verdict, s.expect)
	}
	if a.verdict == consistency.Unknown {
		return 0, nil
	}
	d, set, err := parseInternal(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.name, err)
	}
	if a.cert == nil {
		return 0, fmt.Errorf("%s: %v verdict without a certificate", s.name, a.verdict)
	}
	t0 := time.Now()
	err = certificate.Verify(d, set, a.cert)
	verify := time.Since(t0)
	if err != nil {
		return verify, fmt.Errorf("%s: certificate rejected: %w", s.name, err)
	}
	if a.explained {
		return verify, checkCore(s, d, set, a)
	}
	switch a.verdict {
	case consistency.Consistent:
		if a.witness == "" {
			return verify, nil
		}
		w, err := xmltree.ParseDocumentString(a.witness)
		if err != nil {
			return verify, fmt.Errorf("%s: witness does not parse: %w", s.name, err)
		}
		if err := w.Conforms(d); err != nil {
			return verify, fmt.Errorf("%s: witness does not conform: %w", s.name, err)
		}
		if !constraint.Satisfies(w, set) {
			return verify, fmt.Errorf("%s: witness violates the constraints", s.name)
		}
	case consistency.Inconsistent:
		if s.expect == consistency.Unknown {
			return verify, noSmallWitness(s)
		}
	}
	return verify, nil
}

// noSmallWitness fails when bounded search finds a document for a spec
// the checker called inconsistent.
func noSmallWitness(s spec) error {
	d, set, err := parseInternal(s)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	if bf := bruteforce.Decide(d, set, bruteBound); bf.Sat() {
		return fmt.Errorf("%s: inconsistent, but bounded search found a witness", s.name)
	}
	return nil
}

// checkCore checks an explanation's core on its own: the core names
// distinct constraints of Σ, and the sub-set it names is inconsistent
// with the DTD. The derivation, when there is one, must replay against
// that sub-set; otherwise the sub-set is decided afresh and must come
// back Inconsistent with a certificate that verifies against it.
func checkCore(s spec, d *dtd.DTD, set *constraint.Set, a answer) error {
	if a.verdict != consistency.Inconsistent {
		return nil
	}
	if len(a.core) == 0 {
		if d.Satisfiable() {
			return fmt.Errorf("%s: explanation without a core", s.name)
		}
		return nil
	}
	n := prover.ConstraintCount(set)
	local := map[int]int{}
	for j, i := range a.core {
		if i < 0 || i >= n {
			return fmt.Errorf("%s: core index %d outside Σ (%d constraints)", s.name, i, n)
		}
		if j > 0 && i <= a.core[j-1] {
			return fmt.Errorf("%s: core %v is not in ascending Σ order", s.name, a.core)
		}
		local[i] = j
	}
	sub := &constraint.Set{}
	for i, k := range set.Keys {
		if _, ok := local[i]; ok {
			sub.AddKey(k)
		}
	}
	for i, in := range set.Incls {
		if _, ok := local[len(set.Keys)+i]; ok {
			sub.AddInclusion(in)
		}
	}
	if err := sub.Validate(d); err != nil {
		return fmt.Errorf("%s: core is not a well-formed constraint set: %w", s.name, err)
	}
	if len(a.derivation) > 0 {
		steps := make([]prover.Step, len(a.derivation))
		for i, st := range a.derivation {
			st.Constraints = make([]int, len(a.derivation[i].Constraints))
			for k, c := range a.derivation[i].Constraints {
				j, ok := local[c]
				if !ok {
					return fmt.Errorf("%s: derivation step %d cites constraint %d outside the core", s.name, i, c)
				}
				st.Constraints[k] = j
			}
			steps[i] = st
		}
		if err := prover.Replay(d, sub, steps); err != nil {
			return fmt.Errorf("%s: core derivation does not replay on the core: %w", s.name, err)
		}
		return nil
	}
	res, err := consistency.Check(d, sub, consistency.Options{})
	if err != nil {
		return fmt.Errorf("%s: deciding the core: %w", s.name, err)
	}
	if res.Verdict != consistency.Inconsistent {
		return fmt.Errorf("%s: core is %v, not inconsistent", s.name, res.Verdict)
	}
	if res.Certificate == nil {
		return fmt.Errorf("%s: core refuted without a certificate", s.name)
	}
	if err := certificate.Verify(d, sub, res.Certificate); err != nil {
		return fmt.Errorf("%s: core certificate rejected: %w", s.name, err)
	}
	return nil
}

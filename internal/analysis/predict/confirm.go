package predict

import (
	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// Confirmation classifies how a prediction was discharged against the
// dynamic detector.
type Confirmation int

const (
	// Unconfirmed: neither the recorded schedule nor the targeted
	// perturbation made the dynamic detector report the tuple. The
	// prediction needs a Justified entry to pass the predict gate.
	Unconfirmed Confirmation = iota
	// ConfirmedObserved: the detector already reported the (alloc, kind)
	// tuple on the recorded schedule.
	ConfirmedObserved
	// ConfirmedPerturbed: replay.PerturbTarget produced a legal witness
	// schedule on which the detector reports the tuple.
	ConfirmedPerturbed
	// ConfirmedExplored: the greedy walk failed, but systematic schedule
	// exploration (a ConfirmOptions.Searcher, normally the DPOR explorer
	// in internal/analysis/explore) found a legal schedule on which the
	// detector reports the tuple.
	ConfirmedExplored
)

func (c Confirmation) String() string {
	switch c {
	case ConfirmedObserved:
		return "observed"
	case ConfirmedPerturbed:
		return "perturbed"
	case ConfirmedExplored:
		return "explored"
	default:
		return "unconfirmed"
	}
}

// Searcher is a systematic schedule-space search the confirmation gate
// can fall back to when the greedy PerturbTarget walk fails: it hunts
// for *any* legal reordering of ops on which the dynamic detector
// reports the prediction's (alloc, kind) tuple. Implemented by
// internal/analysis/explore; an interface here so predict does not
// depend on the explorer (which builds on predict's witnesses).
type Searcher interface {
	SearchTuple(h tracefile.Header, ops []tracefile.Op, p Prediction) (bool, error)
}

// ConfirmOptions extends Confirm with optional machinery.
type ConfirmOptions struct {
	// Searcher, when non-nil, is consulted after the greedy walk comes
	// back unconfirmed — exhaustive (bounded) exploration replaces a
	// single greedy witness schedule.
	Searcher Searcher
}

// ConfirmWith is Confirm plus options: observed first, then the greedy
// PerturbTarget witness schedule, then — if a Searcher is supplied and
// the greedy walk failed — systematic schedule exploration.
func ConfirmWith(h tracefile.Header, ops []tracefile.Op, p Prediction, observed map[Tuple]bool, opt ConfirmOptions) (Confirmation, error) {
	c, err := Confirm(h, ops, p, observed)
	if err != nil || c != Unconfirmed || opt.Searcher == nil {
		return c, err
	}
	found, err := opt.Searcher.SearchTuple(h, ops, p)
	if err != nil {
		return Unconfirmed, err
	}
	if found {
		return ConfirmedExplored, nil
	}
	return Unconfirmed, nil
}

// Confirm checks one prediction against the dynamic detector. observed
// is the (alloc, kind) tuple set the detector reported on the recorded
// schedule (may be nil). If the tuple was not observed, the witness pair
// is driven adjacent by replay.PerturbTarget — a legality-preserving
// reordering, so any race it exposes is reachable — and the perturbed
// schedule is replayed through the real ScoRD model.
func Confirm(h tracefile.Header, ops []tracefile.Op, p Prediction, observed map[Tuple]bool) (Confirmation, error) {
	if observed[Tuple{Alloc: p.Alloc, Kind: p.Record.Kind}] {
		return ConfirmedObserved, nil
	}
	pops, _, _, _ := replay.PerturbTarget(ops, p.Witness.Prev, p.Witness.Cur)
	if pops == nil {
		return Unconfirmed, nil
	}
	sc, err := replay.NewScoRD(h.Config)
	if err != nil {
		return Unconfirmed, err
	}
	res, err := replay.RunOps(h, pops, sc)
	if err != nil {
		return Unconfirmed, err
	}
	for _, rec := range res.Races {
		if rec.Kind != p.Record.Kind {
			continue
		}
		if al, ok := res.Mem.Locate(mem.Addr(rec.Addr)); ok && al.Name == p.Alloc {
			return ConfirmedPerturbed, nil
		}
	}
	return Unconfirmed, nil
}

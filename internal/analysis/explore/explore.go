// Package explore is a stateless DPOR-style model checker over recorded
// SCTR traces: it enumerates the inequivalent legal interleavings of a
// trace's conflicting scoped operations and replays every candidate
// schedule through the real dynamic detector (replay.NewScoRD), turning
// the single recorded schedule into a verdict about the whole schedule
// space the trace constrains.
//
// Legality is the shared replay relation (replay.Swappable /
// replay.CheckSchedule): non-access ops — fences, barriers, kernel
// boundaries, allocations — are pinned, each warp keeps program order,
// and same-word pairs where either side is syncish keep their recorded
// order. Two legal schedules are equivalent when every dependent pair
// (same thread or same word) agrees in order; the detector's verdict is
// an invariant of that equivalence class, so the generator (gen.go)
// visits one representative per class, pruned with sleep sets and a
// singleton persistent-set rule. Exploration is exhaustive when no
// bound fires (Verdict.Exhaustive); otherwise the budget cuts are
// counted, never silent.
//
// Every race an explored schedule exposes is re-derived as a predictive
// witness (predict.Run on that schedule) and independently re-verified
// with predict.CheckWitness, so findings carry the same machine-checkable
// evidence as the predictive analysis's own predictions.
package explore

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// Defaults for Options.
const (
	DefaultMaxSchedules = 256
	DefaultMaxOps       = 4 << 20
	DefaultMaxMemBytes  = 1 << 30
)

// Options bounds and parallelizes one exploration.
type Options struct {
	// MaxSchedules caps the number of complete schedules replayed by the
	// DFS (seed schedules are extra). 0 means DefaultMaxSchedules.
	MaxSchedules int
	// MaxDepth stops branching after this many scheduled ops; deeper
	// states take their first enabled candidate only. 0 = unlimited.
	MaxDepth int
	// MaxPreemptions bounds preemptive context switches per schedule: a
	// branch choice that switches threads while the previous op's thread
	// could continue. 0 = unlimited.
	MaxPreemptions int
	// Jobs is the number of parallel replay workers. The verdict is
	// byte-identical at any value. <=0 means 1.
	Jobs int
	// Seeds are predictions whose greedy PerturbTarget schedules are
	// replayed after the DFS, guaranteeing the explorer's findings are a
	// superset of the greedy confirmation walk's even under tight DFS
	// budgets.
	Seeds []predict.Prediction
	// MaxOps and MaxMemBytes reject oversized inputs (0 = defaults).
	MaxOps      int
	MaxMemBytes int
	// OnSchedule, when non-nil, observes every DFS schedule in emission
	// order (sequentially, before replay). perm maps schedule position to
	// original op index and must not be retained. A non-nil error aborts
	// the exploration. Test hook.
	OnSchedule func(idx int, perm []int32) error
}

// Finding is one distinct (alloc, kind) race tuple some explored
// schedule exposed, with the schedule that first exposed it and a
// machine-checked predictive witness derived on that schedule.
type Finding struct {
	Alloc      string          `json:"alloc"`
	Kind       core.RaceKind   `json:"kind"`
	Record     core.Record     `json:"record"`
	Schedule   int             `json:"schedule"`
	Observed   bool            `json:"observed"`         // exposed by schedule 0 (the recorded class)
	Seeded     bool            `json:"seeded,omitempty"` // exposed by a seed schedule, not the DFS
	Witness    predict.Witness `json:"witness"`
	WitnessOK  bool            `json:"witnessOK"`
	WitnessErr string          `json:"witnessErr,omitempty"`
}

func (f Finding) Tuple() predict.Tuple { return predict.Tuple{Alloc: f.Alloc, Kind: f.Kind} }

// Verdict is the outcome of exploring one trace.
type Verdict struct {
	Benchmark string `json:"benchmark"`
	Ops       int    `json:"ops"`
	Accesses  int    `json:"accesses"`
	Segments  int    `json:"segments"` // maximal fence/barrier-free access runs
	Threads   int    `json:"threads"`  // distinct (block, warp) pairs

	Explored   int  `json:"explored"`   // DFS schedules replayed
	Pruned     int  `json:"pruned"`     // sleep-set-blocked redundant prefixes
	BoundedOut int  `json:"boundedOut"` // branch alternatives dropped by a bound
	Branches   int  `json:"branches"`   // branch states visited
	Seeded     int  `json:"seeded"`     // seed schedules replayed after the DFS
	Exhaustive bool `json:"exhaustive"` // every equivalence class got a representative

	Races []Finding `json:"races"`
}

// Covers reports whether the verdict contains the (alloc, kind) tuple.
func (v *Verdict) Covers(alloc string, kind core.RaceKind) bool {
	for _, f := range v.Races {
		if f.Alloc == alloc && f.Kind == kind {
			return true
		}
	}
	return false
}

// WriteText renders the verdict deterministically.
func (v *Verdict) WriteText(w io.Writer) {
	fmt.Fprintf(w, "explore     %s\n", v.Benchmark)
	fmt.Fprintf(w, "trace       %d ops, %d accesses, %d segments, %d warps\n",
		v.Ops, v.Accesses, v.Segments, v.Threads)
	fmt.Fprintf(w, "schedules   explored=%d pruned=%d bounded=%d branches=%d seeded=%d exhaustive=%v\n",
		v.Explored, v.Pruned, v.BoundedOut, v.Branches, v.Seeded, v.Exhaustive)
	fmt.Fprintf(w, "races       %d distinct (alloc, kind) tuples\n", len(v.Races))
	for _, f := range v.Races {
		alloc := f.Alloc
		if alloc == "" {
			alloc = "?"
		}
		tag := "explored"
		switch {
		case f.Observed:
			tag = "recorded"
		case f.Seeded:
			tag = "seeded"
		}
		fmt.Fprintf(w, "  %s/%s schedule=%d source=%s witness-ok=%v\n",
			alloc, f.Kind, f.Schedule, tag, f.WitnessOK)
		fmt.Fprintf(w, "    %s\n", f.Witness.String())
	}
}

// tupleHit is one raw race record from a replay, located to its alloc.
type tupleHit struct {
	alloc string
	rec   core.Record
}

type schedOut struct {
	perm []int32
	hits []tupleHit
	err  error
}

// Explore enumerates the trace's schedule space under opt. The detector
// runs in ModeFull4B regardless of the recorded mode: coarse-granularity
// modes alias neighbouring words into one metadata entry, producing
// group races the word-granular witness checker cannot express.
func Explore(h tracefile.Header, ops []tracefile.Op, opt Options) (*Verdict, error) {
	maxOps := opt.MaxOps
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	if len(ops) > maxOps {
		return nil, fmt.Errorf("explore: trace has %d ops, limit %d", len(ops), maxOps)
	}
	maxMem := opt.MaxMemBytes
	if maxMem <= 0 {
		maxMem = DefaultMaxMemBytes
	}
	if h.Config.DeviceMemBytes > maxMem {
		return nil, fmt.Errorf("explore: device memory %d bytes, limit %d", h.Config.DeviceMemBytes, maxMem)
	}
	hh := h
	hh.Config = h.Config.WithDetector(config.ModeFull4B)

	m, err := buildModel(ops)
	if err != nil {
		return nil, err
	}
	v := &Verdict{
		Benchmark: h.Benchmark,
		Ops:       len(ops),
		Accesses:  m.accesses,
		Segments:  m.segments,
		Threads:   m.threads,
	}
	gopt := genOptions{
		maxSchedules: opt.MaxSchedules,
		maxDepth:     opt.MaxDepth,
		maxPreempt:   -1,
		branchRun:    -1,
	}
	if opt.MaxPreemptions > 0 {
		gopt.maxPreempt = opt.MaxPreemptions
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = 1
	}

	// Pipeline: the generator (sequential, deterministic) feeds perms to
	// replay workers; the merger consumes results strictly in emission
	// order, so the verdict is independent of worker interleaving.
	jobCh := make(chan schedJob, jobs)
	replyQ := make(chan chan schedOut, 2*jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			for j := range jobCh {
				out := replaySchedule(hh, ops, j.perm)
				j.reply <- out
			}
		}()
	}
	var genErr error
	go func() {
		defer close(replyQ)
		defer close(jobCh)
		stats, err := generate(m, gopt, func(idx int, path []int32) (bool, error) {
			perm := slices.Clone(path) // the generator reuses path; workers replay later
			if opt.OnSchedule != nil {
				if err := opt.OnSchedule(idx, perm); err != nil {
					return true, err
				}
			}
			reply := make(chan schedOut, 1)
			replyQ <- reply
			jobCh <- schedJob{perm: perm, reply: reply}
			return false, nil
		})
		v.Explored = stats.explored
		v.Pruned = stats.pruned
		v.BoundedOut = stats.boundedOut
		v.Branches = stats.branches
		v.Exhaustive = stats.exhausted(gopt)
		genErr = err
	}()

	found := map[predict.Tuple]bool{}
	idx := 0
	var firstErr error
	for reply := range replyQ {
		out := <-reply
		if out.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("explore: schedule %d: %w", idx, out.err)
		}
		if out.err == nil {
			addFindings(v, hh, ops, found, idx, out, false)
		}
		idx++
	}
	if genErr != nil {
		return nil, genErr
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Seed phase: the greedy walk's witness schedules, replayed so the
	// explorer's tuple set is a superset of PerturbTarget confirmation no
	// matter how tight the DFS budget was.
	for _, p := range opt.Seeds {
		if found[p.Tuple()] {
			continue
		}
		perm, _, _, ok := replay.PerturbTarget(ops, p.Witness.Prev, p.Witness.Cur)
		if !ok {
			continue
		}
		out := replaySchedule(hh, ops, perm)
		if out.err != nil {
			return nil, fmt.Errorf("explore: seed schedule for %s/%s: %w", p.Alloc, p.Record.Kind, out.err)
		}
		sIdx := v.Explored + v.Seeded
		v.Seeded++
		addFindings(v, hh, ops, found, sIdx, out, true)
	}

	sort.Slice(v.Races, func(i, j int) bool { return v.Races[i].Tuple().Less(v.Races[j].Tuple()) })
	return v, nil
}

type schedJob struct {
	perm  []int32
	reply chan schedOut
}

func replaySchedule(h tracefile.Header, ops []tracefile.Op, perm []int32) schedOut {
	sc, err := replay.NewScoRD(h.Config)
	if err != nil {
		return schedOut{perm: perm, err: err}
	}
	res, err := replay.RunOpsPermuted(h, ops, perm, sc)
	if err != nil {
		return schedOut{perm: perm, err: err}
	}
	return schedOut{perm: perm, hits: locateRaces(res)}
}

func locateRaces(res *replay.Result) []tupleHit {
	var hits []tupleHit
	for _, rec := range res.Races {
		var alloc string
		if al, ok := res.Mem.Locate(mem.Addr(rec.Addr)); ok {
			alloc = al.Name
		}
		hits = append(hits, tupleHit{alloc: alloc, rec: rec})
	}
	return hits
}

// addFindings registers the new tuples of one schedule, a DFS or a seed
// schedule. The schedule's op sequence is built, and analysed, at most
// once and only when it exposes a new tuple; a schedule in the recorded
// order, as schedule 0 is, is analysed in place.
func addFindings(v *Verdict, h tracefile.Header, ops []tracefile.Op, found map[predict.Tuple]bool, idx int, out schedOut, seeded bool) {
	var sops []tracefile.Op
	var pres *predict.Result
	var perr error
	for _, hit := range out.hits {
		t := predict.Tuple{Alloc: hit.alloc, Kind: hit.rec.Kind}
		if found[t] {
			continue
		}
		found[t] = true
		if pres == nil && perr == nil {
			sops = ops
			if !isIdentity(out.perm) {
				sops = replay.Schedule(ops, out.perm)
			}
			pres, perr = predict.Run(h, sops, predict.Options{})
		}
		v.Races = append(v.Races, newFinding(h, sops, pres, perr, hit, idx, seeded))
	}
}

// isIdentity reports whether perm keeps every op in place.
func isIdentity(perm []int32) bool {
	for i, p := range perm {
		if int(p) != i {
			return false
		}
	}
	return true
}

// newFinding derives and checks the predictive witness for one tuple on
// the schedule that exposed it: pres, the predictive analysis of that
// schedule (or its error perr), must hold a matching prediction, whose
// witness is verified from scratch by predict.CheckWitness — independent,
// machine-checkable evidence that the race is real on that schedule.
func newFinding(h tracefile.Header, sops []tracefile.Op, pres *predict.Result, perr error, hit tupleHit, idx int, seeded bool) Finding {
	f := Finding{
		Alloc:    hit.alloc,
		Kind:     hit.rec.Kind,
		Record:   hit.rec,
		Schedule: idx,
		Observed: idx == 0 && !seeded,
		Seeded:   seeded,
	}
	if perr != nil {
		f.WitnessErr = fmt.Sprintf("predict: %v", perr)
		return f
	}
	for _, p := range pres.Predictions {
		if p.Alloc != hit.alloc || p.Record.Kind != hit.rec.Kind {
			continue
		}
		f.Witness = p.Witness
		if werr := predict.CheckWitness(h, sops, p.Witness); werr != nil {
			f.WitnessErr = werr.Error()
		} else {
			f.WitnessOK = true
		}
		return f
	}
	f.WitnessErr = "no prediction matches the dynamic tuple on this schedule"
	return f
}

// FromReader decodes a trace and explores it.
func FromReader(r *tracefile.Reader, opt Options) (*Verdict, error) {
	ops, err := replay.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Explore(r.Header(), ops, opt)
}

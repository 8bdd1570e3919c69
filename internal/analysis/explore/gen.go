package explore

import (
	"fmt"

	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// This file is the schedule generator: a depth-first enumeration of the
// legal interleavings of one decoded trace, pruned with sleep sets and
// a singleton persistent-set rule so each Mazurkiewicz equivalence
// class of schedules is generated at most once (exactly once when no
// bound cuts the search). See DESIGN.md §17 for the soundness argument.
//
// The state space is the set of downward-closed prefixes of the
// order-fixed relation replay.Swappable induces: non-access ops are
// pinned (splitting the trace into runs), a warp's accesses keep
// program order, and same-word accesses where either side is syncish
// keep their recorded order. Two legal schedules are equivalent when
// every *dependent* pair — same thread, or same word of any flavour —
// appears in the same order; the detector's verdict is a class
// invariant because its per-word metadata and per-warp sync state read
// only those orders. The generator's frontier is ordered by original op
// index, which makes the first emitted schedule a member of the
// recorded schedule's class, and the whole emission order a pure
// function of the trace.

// model is the static scheduling structure of one trace.
type model struct {
	ops  []tracefile.Op
	runs []run

	// Per-op tables (access ops unless noted).
	runOf   []int32 // run index (every op)
	thr     []int32 // dense thread id of (block, warp)
	thrPred []int32 // previous op of the same thread, trace-wide; -1 none
	wordID  []int32 // dense (run, word) id; -1 for non-access ops
	wordPos []int32 // same-word ops before it in its run
	syncPos []int32 // syncish same-word ops before it in its run
	sync    []bool  // replay.Syncish

	// Per-wordID tables.
	wordMulti []bool  // word touched by more than one thread in its run
	wordCount []int32 // total ops on the word in its run

	// Initial per-(word, thread) op counts for multi-thread words.
	wordThrTotal map[int64]int32

	threads  int
	accesses int
	segments int // access runs
}

type run struct {
	start, end int32
	access     bool
}

func wtKey(wid, thr int32) int64 { return int64(wid)<<24 | int64(thr) }

const maxThreads = 1 << 24

// buildModel precomputes the scheduling structure.
func buildModel(ops []tracefile.Op) (*model, error) {
	n := len(ops)
	if int64(n) >= 1<<31 {
		return nil, fmt.Errorf("explore: trace has %d ops, generator limit is 2^31", n)
	}
	m := &model{
		ops:          ops,
		runOf:        make([]int32, n),
		thr:          make([]int32, n),
		thrPred:      make([]int32, n),
		wordID:       make([]int32, n),
		wordPos:      make([]int32, n),
		syncPos:      make([]int32, n),
		sync:         make([]bool, n),
		wordThrTotal: map[int64]int32{},
	}
	type thrK struct{ block, warp int }
	thrIDs := map[thrK]int32{}
	lastOfThr := map[int32]int32{}
	type wordK struct {
		run  int32
		word uint64
	}
	wordIDs := map[wordK]int32{}
	wordCount := []int32{}
	wordSync := []int32{}
	wordFirstThr := []int32{}

	curRun := int32(-1)
	curAccess := false
	for i := 0; i < n; i++ {
		isAcc := ops[i].Kind == tracefile.OpAccess
		if curRun < 0 || isAcc != curAccess {
			m.runs = append(m.runs, run{start: int32(i), end: int32(i), access: isAcc})
			curRun++
			curAccess = isAcc
			if isAcc {
				m.segments++
			}
		}
		m.runs[curRun].end = int32(i + 1)
		m.runOf[i] = curRun
		if !isAcc {
			m.wordID[i] = -1
			m.thrPred[i] = -1
			continue
		}
		m.accesses++
		a := ops[i].Access
		tk := thrK{a.Block, a.Warp}
		tid, ok := thrIDs[tk]
		if !ok {
			tid = int32(len(thrIDs))
			if tid >= maxThreads {
				return nil, fmt.Errorf("explore: more than %d distinct warps", maxThreads)
			}
			thrIDs[tk] = tid
		}
		m.thr[i] = tid
		if p, ok := lastOfThr[tid]; ok {
			m.thrPred[i] = p
		} else {
			m.thrPred[i] = -1
		}
		lastOfThr[tid] = int32(i)

		wk := wordK{curRun, a.Addr / mem.WordBytes}
		wid, ok := wordIDs[wk]
		if !ok {
			wid = int32(len(wordIDs))
			wordIDs[wk] = wid
			wordCount = append(wordCount, 0)
			wordSync = append(wordSync, 0)
			wordFirstThr = append(wordFirstThr, tid)
			m.wordMulti = append(m.wordMulti, false)
		}
		m.wordID[i] = wid
		m.wordPos[i] = wordCount[wid]
		m.syncPos[i] = wordSync[wid]
		wordCount[wid]++
		m.sync[i] = replay.Syncish(ops[i])
		if m.sync[i] {
			wordSync[wid]++
		}
		if wordFirstThr[wid] != tid {
			m.wordMulti[wid] = true
		}
		m.wordThrTotal[wtKey(wid, tid)]++
	}
	m.threads = len(thrIDs)
	// Keep per-(word, thread) counts only where the eligibility check
	// consults them.
	for k := range m.wordThrTotal {
		if !m.wordMulti[int32(k>>24)] {
			delete(m.wordThrTotal, k)
		}
	}
	m.wordCount = wordCount
	return m, nil
}

// genOptions bounds one generation.
type genOptions struct {
	maxSchedules int // leaves emitted before the search is cut
	maxDepth     int // ops scheduled after which branching stops; <=0 unlimited
	maxPreempt   int // preemptive branch choices per schedule; <0 unlimited
	branchRun    int // restrict branching to this run index; <0 all runs
	maxDead      int // sleep-blocked prefixes tolerated before the search stops; <=0 default
}

// genStats are the exploration counters.
type genStats struct {
	explored   int  // complete schedules emitted
	pruned     int  // sleep-set-blocked prefixes abandoned (redundant classes)
	boundedOut int  // branch alternatives dropped by a bound
	branches   int  // branch states visited
	deadCapped bool // the sleep-blocked-prefix cap stopped the search
}

// exhausted reports whether the search covered the whole class space.
func (s genStats) exhausted(opt genOptions) bool {
	return s.boundedOut == 0 && !s.deadCapped && opt.branchRun < 0
}

// frame is one branch point on the DFS stack.
type frame struct {
	pathLen     int
	sleepIn     []int32
	cands       []int32 // enabled, not sleeping, ascending op index
	tried       int
	preemptIn   int
	lastThr     int32 // thread of the op scheduled just before this state
	lastThrSet  bool
	lastHadCand bool // that thread has a candidate here (switch = preemption)
}

type sleepMark struct {
	depth int
	prev  []int32
}

// gen is the mutable DFS state.
type gen struct {
	m   *model
	opt genOptions

	path     []int32
	executed []bool
	curRun   int
	runRem   []int32

	// Dancing-links pending list per access run: node i < n is op i,
	// node n+r is run r's sentinel.
	next, prev []int32

	wordExec     []int32
	wordSyncExec []int32
	wordRem      []int32
	wordThrRem   map[int64]int32

	curSleep []int32
	trail    []sleepMark

	preempt int
	frames  []frame
	stats   genStats

	emit func(idx int, path []int32) (stop bool, err error)
}

func newGen(m *model, opt genOptions, emit func(int, []int32) (bool, error)) *gen {
	n := len(m.ops)
	g := &gen{
		m:            m,
		opt:          opt,
		executed:     make([]bool, n),
		runRem:       make([]int32, len(m.runs)),
		next:         make([]int32, n+len(m.runs)),
		prev:         make([]int32, n+len(m.runs)),
		wordExec:     make([]int32, len(m.wordMulti)),
		wordSyncExec: make([]int32, len(m.wordMulti)),
		wordRem:      make([]int32, len(m.wordMulti)),
		wordThrRem:   make(map[int64]int32, len(m.wordThrTotal)),
		emit:         emit,
	}
	for k, v := range m.wordThrTotal {
		g.wordThrRem[k] = v
	}
	for wid := range g.wordRem {
		g.wordRem[wid] = m.wordCount[wid]
	}
	for r, rn := range m.runs {
		g.runRem[r] = rn.end - rn.start
		if !rn.access {
			continue
		}
		s := int32(n + r)
		p := s
		for i := rn.start; i < rn.end; i++ {
			g.next[p] = i
			g.prev[i] = p
			p = i
		}
		g.next[p] = s
		g.prev[s] = p
	}
	return g
}

func (g *gen) enabled(t int32) bool {
	if p := g.m.thrPred[t]; p >= 0 && !g.executed[p] {
		return false
	}
	wid := g.m.wordID[t]
	if g.m.sync[t] {
		return g.wordExec[wid] == g.m.wordPos[t]
	}
	return g.wordSyncExec[wid] == g.m.syncPos[t]
}

// eligible reports whether t may execute alone without branching: {t}
// is a persistent set when no unexecuted access of another thread
// touches t's word in this run (anything any other thread can do before
// t is then independent of t).
func (g *gen) eligible(t int32) bool {
	wid := g.m.wordID[t]
	if !g.m.wordMulti[wid] {
		return true
	}
	return g.wordRem[wid] == g.wordThrRem[wtKey(wid, g.m.thr[t])]
}

func (g *gen) inSleep(t int32) bool {
	for _, u := range g.curSleep {
		if u == t {
			return true
		}
	}
	return false
}

// indep: two access transitions commute and cannot disable each other
// iff they come from different threads and touch different words.
func (g *gen) indep(u, t int32) bool {
	return g.m.thr[u] != g.m.thr[t] && g.m.wordID[u] != g.m.wordID[t]
}

func (g *gen) setSleep(ns []int32) {
	g.trail = append(g.trail, sleepMark{depth: len(g.path), prev: g.curSleep})
	g.curSleep = ns
}

// exec schedules op t. Sleep-set maintenance is the caller's job.
func (g *gen) exec(t int32) {
	g.path = append(g.path, t)
	g.executed[t] = true
	r := g.m.runOf[t]
	g.runRem[r]--
	if g.m.ops[t].Kind == tracefile.OpAccess {
		// Unlink from the pending list.
		g.next[g.prev[t]] = g.next[t]
		g.prev[g.next[t]] = g.prev[t]
		wid := g.m.wordID[t]
		g.wordExec[wid]++
		if g.m.sync[t] {
			g.wordSyncExec[wid]++
		}
		g.wordRem[wid]--
		if g.m.wordMulti[wid] {
			g.wordThrRem[wtKey(wid, g.m.thr[t])]--
		}
	}
	if g.runRem[r] == 0 && int(r) == g.curRun {
		g.curRun++
	}
}

// execForced runs exec plus the sleep filtering a non-branch step needs.
func (g *gen) execForced(t int32) {
	if len(g.curSleep) > 0 {
		if g.m.ops[t].Kind != tracefile.OpAccess {
			g.setSleep(nil)
		} else {
			kept := g.filterSleep(g.curSleep, t)
			if len(kept) != len(g.curSleep) {
				g.setSleep(kept)
			}
		}
	}
	g.exec(t)
}

func (g *gen) filterSleep(in []int32, t int32) []int32 {
	var out []int32
	for _, u := range in {
		if g.indep(u, t) {
			out = append(out, u)
		}
	}
	return out
}

func (g *gen) undoOne() {
	t := g.path[len(g.path)-1]
	g.path = g.path[:len(g.path)-1]
	g.executed[t] = false
	r := g.m.runOf[t]
	if g.runRem[r] == 0 {
		g.curRun = int(r)
	}
	g.runRem[r]++
	if g.m.ops[t].Kind == tracefile.OpAccess {
		// Relink: t's own next/prev still point at its neighbours.
		g.next[g.prev[t]] = t
		g.prev[g.next[t]] = t
		wid := g.m.wordID[t]
		g.wordExec[wid]--
		if g.m.sync[t] {
			g.wordSyncExec[wid]--
		}
		g.wordRem[wid]++
		if g.m.wordMulti[wid] {
			g.wordThrRem[wtKey(wid, g.m.thr[t])]++
		}
	}
}

func (g *gen) undoTo(l int) {
	for len(g.path) > l {
		g.undoOne()
	}
	for len(g.trail) > 0 && g.trail[len(g.trail)-1].depth >= l {
		g.curSleep = g.trail[len(g.trail)-1].prev
		g.trail = g.trail[:len(g.trail)-1]
	}
}

type advanceResult int

const (
	advBacktrack advanceResult = iota // dead or bounded path: try siblings
	advDone                           // leaf emitted: try siblings
	advStop                           // budget reached or emit said stop
)

// advance drains forced moves and branch choices until the schedule
// completes, the path dies under the sleep set, or a budget stops the
// whole search.
func (g *gen) advance() (advanceResult, error) {
	for {
		if g.curRun == len(g.m.runs) {
			idx := g.stats.explored
			g.stats.explored++
			stop, err := g.emit(idx, g.path)
			if err != nil {
				return advStop, err
			}
			if stop || g.stats.explored >= g.opt.maxSchedules {
				return advStop, nil
			}
			return advDone, nil
		}
		rn := g.m.runs[g.curRun]
		if !rn.access {
			for i := rn.start; i < rn.end; i++ {
				g.execForced(i)
			}
			continue
		}
		// Access run: greedy singleton drain, then branch.
		sentinel := int32(len(g.m.ops) + g.curRun)
		var cands []int32
		sleeping := 0
		for {
			executedAny := false
			cands = cands[:0]
			sleeping = 0
			for x := g.next[sentinel]; x != sentinel; {
				nx := g.next[x]
				if g.enabled(x) {
					switch {
					case g.inSleep(x):
						sleeping++
					case g.eligible(x):
						g.execForced(x)
						executedAny = true
					default:
						cands = append(cands, x)
					}
				}
				x = nx
			}
			if g.runRem[g.m.runOf[rn.start]] == 0 {
				break // run complete; outer loop advances
			}
			if !executedAny {
				if len(cands) == 0 {
					if sleeping == 0 {
						return advStop, fmt.Errorf("explore: internal error: no enabled op in incomplete run")
					}
					// Every enabled op is asleep: any completion of this
					// prefix would replay an already-covered class. Sleep
					// sets make such dead ends possible in exponential
					// number, so a cap (counted, surfaced via Exhaustive)
					// keeps the worst case bounded.
					g.stats.pruned++
					if g.stats.pruned >= g.opt.maxDead {
						g.stats.deadCapped = true
						return advStop, nil
					}
					return advBacktrack, nil
				}
				g.branch(cands)
				break
			}
		}
	}
}

// branch opens a frame over cands (ascending op index), applies the
// bounds, and executes the first surviving candidate.
func (g *gen) branch(cands []int32) {
	g.stats.branches++
	f := frame{
		pathLen:   len(g.path),
		sleepIn:   g.curSleep,
		cands:     append([]int32(nil), cands...),
		preemptIn: g.preempt,
	}
	if len(g.path) > 0 {
		last := g.path[len(g.path)-1]
		if g.m.ops[last].Kind == tracefile.OpAccess {
			f.lastThr, f.lastThrSet = g.m.thr[last], true
			for _, c := range f.cands {
				if g.m.thr[c] == f.lastThr {
					f.lastHadCand = true
					break
				}
			}
		}
	}
	// Preemption bound: once the budget is spent, the previous thread —
	// if it can run here — is the only choice; switching away would be
	// one preemption too many.
	if g.opt.maxPreempt >= 0 && g.preempt >= g.opt.maxPreempt && f.lastHadCand {
		kept := f.cands[:0]
		for _, c := range f.cands {
			if g.m.thr[c] == f.lastThr {
				kept = append(kept, c)
			}
		}
		g.stats.boundedOut += len(f.cands) - len(kept)
		f.cands = kept
	}
	// Depth bound: past the horizon the first candidate stands for the
	// whole state (no new branching).
	if g.opt.maxDepth > 0 && len(g.path) >= g.opt.maxDepth {
		g.stats.boundedOut += len(f.cands) - 1
		f.cands = f.cands[:1]
	}
	// Focused search: outside the branch run, schedule the lowest-index
	// candidate deterministically without exploring alternatives.
	if g.opt.branchRun >= 0 && g.curRun != g.opt.branchRun {
		f.cands = f.cands[:1]
	}
	g.frames = append(g.frames, f)
	g.execFrame(&g.frames[len(g.frames)-1])
}

// execFrame executes the frame's next candidate with sleep-set
// bookkeeping: siblings already fully explored go to sleep for this
// subtree unless the chosen transition is dependent on them.
func (g *gen) execFrame(f *frame) {
	c := f.cands[f.tried]
	f.tried++
	ns := g.filterSleep(f.sleepIn, c)
	for _, u := range f.cands[:f.tried-1] {
		if g.indep(u, c) {
			ns = append(ns, u)
		}
	}
	g.setSleep(ns)
	if f.lastThrSet && f.lastHadCand && g.m.thr[c] != f.lastThr {
		g.preempt = f.preemptIn + 1
	} else {
		g.preempt = f.preemptIn
	}
	g.exec(c)
}

// run drives the DFS to completion or budget exhaustion.
func (g *gen) run() (genStats, error) {
	for {
		res, err := g.advance()
		if err != nil {
			return g.stats, err
		}
		if res == advStop {
			// Account the branches the budget cut off.
			for i := range g.frames {
				f := &g.frames[i]
				g.stats.boundedOut += len(f.cands) - f.tried
			}
			return g.stats, nil
		}
		// Backtrack to the deepest frame with an untried candidate.
		progressed := false
		for len(g.frames) > 0 {
			f := &g.frames[len(g.frames)-1]
			g.undoTo(f.pathLen)
			if f.tried < len(f.cands) {
				g.execFrame(f)
				progressed = true
				break
			}
			g.frames = g.frames[:len(g.frames)-1]
		}
		if !progressed {
			return g.stats, nil // whole space covered
		}
	}
}

// generate enumerates schedules of ops under opt, calling emit with
// each complete schedule's index and path (op indices in execution
// order; the slice is reused — copy to retain). Emission order, paths
// and counters are a pure function of (ops, opt).
func generate(m *model, opt genOptions, emit func(int, []int32) (bool, error)) (genStats, error) {
	if opt.maxSchedules <= 0 {
		opt.maxSchedules = DefaultMaxSchedules
	}
	if opt.maxDead <= 0 {
		opt.maxDead = 4*opt.maxSchedules + 64
	}
	g := newGen(m, opt, emit)
	return g.run()
}

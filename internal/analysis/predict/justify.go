package predict

// Justified lists every predicted race tuple the dynamic detector
// confirms on neither the recorded schedule nor a PerturbTarget witness
// schedule, keyed "BENCH/alloc/kind", with the reviewed reason. The
// predict gate (harness.RunPredictSuite) fails both ways: an unconfirmed
// prediction missing from this table, and a table entry that no longer
// matches a live unconfirmed prediction.
//
// Two residue classes exist today:
//
//   - Masked republication (precision loss): the predictor checks every
//     per-thread frame of a word, so a stale block-scope atomic frame is
//     still paired with a later cross-block reader even when the same
//     block republished the word with a strong, device-fenced store
//     first. The detector's single metadata slot implements
//     last-write-dominates and never sees the stale pair, and the
//     arrive-ticket protocol gates the reader behind the republication
//     in every schedule.
//
//   - Weak-memory window beyond trace reordering (soundness kept): the
//     store-side twin of an observed missing-lock race. Mutual exclusion
//     serializes the critical sections in every legal trace reordering,
//     so no schedule can put the unfenced CS accesses slot-adjacent —
//     but mutual exclusion is not ordering: with the lock's fence
//     missing or mis-scoped, the CS accesses are unordered in the memory
//     model and the detector itself reports the load-side kind of the
//     same window.
var Justified = map[string]string{
	"GCOL/gcol.coloredCount/scoped-atomic": "the block-scope fold of " +
		"coloredCount is republished by warp 0 through a strong, " +
		"device-fenced store before the arrive-gated last block sums the " +
		"slots; the stale atomic frame the predictor pairs with the " +
		"cross-block reader is masked by the republication in every " +
		"schedule (masked-republication residue)",
	"GCON/gcon.changed/scoped-atomic": "same publish pattern as " +
		"gcol.coloredCount: the block-scope fold of changed is " +
		"republished strongly and device-fenced before the arrive-gated " +
		"reader (masked-republication residue)",
	"lock.racey.exch-block/m.data/missing-lock-store": "store-side twin " +
		"of the observed missing-lock-load: the barger's unordered store " +
		"conflicts with the producer's CS accesses, but the producer's " +
		"lock fences pin its CS in every legal trace reordering, so no " +
		"schedule makes the store the slot's next checked access " +
		"(weak-memory-window residue)",
	"lock.racey.one-side-fence-missing/m.data/missing-lock-store": "the " +
		"unfenced side's store conflicts with the fenced side's CS, but " +
		"the lock value still serializes the critical sections in every " +
		"trace reordering; the race window exists only in the memory " +
		"model, where the detector already reports the load-side kind " +
		"(weak-memory-window residue)",
}

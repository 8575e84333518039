package mwu

// Names lists the learner names the factory accepts: the paper's three
// realizations in presentation order, then the stream-API learners added
// on top (optimistic-gradient MWU and constant-step congestion-game
// dynamics). Registry-driven call sites — the experiment harness's
// default algorithm set, the server's job validation, the trace
// byte-identity suite — extend automatically with this list.
var Names = []string{"standard", "distributed", "slate", "optimistic", "congestion"}

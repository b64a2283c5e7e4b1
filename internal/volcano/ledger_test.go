package volcano

import (
	"context"
	"errors"
	"testing"

	"prairie/internal/core"
)

// TestLedgerOnEveryExit: whichever way a search ends, its one endRun
// reports what it did. The per-rule maps agree with the trace, firing for
// firing, and the memo counters are written.
func TestLedgerOnEveryExit(t *testing.T) {
	type setup struct {
		o      *Optimizer
		ctx    context.Context
		tree   *core.Expr
		req    *core.Descriptor
		cancel func() // cancels ctx once the search fires a trans rule
	}
	for _, tc := range []struct {
		name    string
		prepare func(w *testWorld, s *setup)
		path    string
		wantErr error
	}{
		{name: "completed", prepare: func(*testWorld, *setup) {}},
		{name: "memo-best", path: DegradePathMemo, prepare: func(_ *testWorld, s *setup) {
			s.o.Opts.Budget = Budget{MaxExprs: 12}
		}},
		{name: "bottom-up", path: DegradePathGreedy, prepare: func(_ *testWorld, s *setup) {
			s.ctx, s.cancel = context.WithCancel(context.Background())
		}},
		{name: "ErrNoPlan", wantErr: ErrNoPlan, prepare: func(w *testWorld, s *setup) {
			w.rs.Enforcers = nil
			s.tree = w.retOf(w.leaf("R1", 8, core.A("R1", "a")))
		}},
		{name: "cancelled", path: DegradePathGreedy, prepare: func(_ *testWorld, s *setup) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.ctx = ctx
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld()
			s := &setup{o: NewOptimizer(w.rs), ctx: context.Background(), tree: w.chain(16, 8, 4, 2), req: w.alg.NewDesc()}
			s.req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
			tc.prepare(w, s)
			events := map[EventKind]int{}
			s.o.OnEvent = func(e Event) {
				events[e.Kind]++
				if e.Kind == EventTransFired && s.cancel != nil {
					s.cancel()
				}
			}
			_, err := s.o.OptimizeContext(s.ctx, s.tree, s.req)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			st := s.o.Stats
			if st.DegradePath != tc.path {
				t.Fatalf("DegradePath = %q, want %q", st.DegradePath, tc.path)
			}
			sum := func(m map[string]int) (n int) {
				for _, v := range m {
					n += v
				}
				return n
			}
			if got, want := sum(st.TransFired), events[EventTransFired]; got != want {
				t.Errorf("TransFired sums to %d, the trace has %d firings", got, want)
			}
			if got, want := sum(st.EnfFired), events[EventEnforcerApplied]; got != want {
				t.Errorf("EnfFired sums to %d, the trace has %d enforcer plans", got, want)
			}
			if tc.wantErr == nil && events[EventEnforcerApplied] == 0 {
				t.Error("no enforcer plan: the case does not test EnfFired")
			}
			if st.Groups == 0 || st.Exprs == 0 {
				t.Errorf("memo counters not written: groups=%d exprs=%d", st.Groups, st.Exprs)
			}
		})
	}
}

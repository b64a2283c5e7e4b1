package volcano

import "prairie/internal/core"

// The plan type's old name: the search returns *core.Expr. The alias
// survives only because the benchmark module (bench/env.go,
// bench/layers.go, bench/library.go) still names it; delete it together
// with those lines (ROADMAP 7(a)).
type PExpr = core.Expr

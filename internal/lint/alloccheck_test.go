package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/analysistest"
)

// fixtureAllocConfig rebinds the hot-root table to the hermetic allocfix
// fixture: one table-declared root (tableHot) beside the annotation-driven
// ones, plus a stale entry (staleRoot) the analyzer must report, with the
// default always-allocates list unchanged.
func fixtureAllocConfig() lint.AllocConfig {
	cfg := lint.DefaultAllocConfig()
	cfg.HotFuncs = []string{"allocfix.tableHot", "allocfix.staleRoot"}
	return cfg
}

func TestAllocCheck(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{
		lint.NewAllocCheck(fixtureAllocConfig()),
	}, "allocfix")
}

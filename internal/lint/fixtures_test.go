package lint_test

import (
	"testing"

	"amac/internal/lint"
	"amac/internal/lint/linttest"
)

// src is the fixture root; packages under it impersonate the real engine
// import paths so each analyzer's package filter is exercised exactly.
const src = "testdata/src"

func TestMapIterFixtures(t *testing.T) {
	linttest.Run(t, src, lint.MapIter,
		"amac/internal/core/mapiterfix",
		"amac/internal/sim",
		"other/notcritical",
	)
}

func TestWallClockFixtures(t *testing.T) {
	linttest.Run(t, src, lint.WallClock,
		"amac/internal/mac/wallclockfix",
		"other/notcritical",
	)
}

func TestHotAllocFixtures(t *testing.T) {
	linttest.Run(t, src, lint.HotAlloc, "amac/internal/sched/hotallocfix")
}

func TestPayloadBoxFixtures(t *testing.T) {
	linttest.Run(t, src, lint.PayloadBox, "amac/internal/core/payloadboxfix")
}

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestLoggerLevelsAndShape(t *testing.T) {
	var b bytes.Buffer
	lg := NewLogger(&b, LevelWarn)
	lg.Debug("nope")
	lg.Info("nope")
	lg.Warn("queued", "depth", 7)
	lg.Error("boom", "err", errors.New("bad"), "took", 1500*time.Microsecond)

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (below-min levels filtered):\n%s", len(lines), b.String())
	}
	var warn, errRec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &warn); err != nil {
		t.Fatalf("warn line not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &errRec); err != nil {
		t.Fatalf("error line not JSON: %v", err)
	}
	if warn["level"] != "WARN" || warn["msg"] != "queued" || warn["depth"] != float64(7) {
		t.Fatalf("warn = %v", warn)
	}
	if _, err := time.Parse(time.RFC3339Nano, warn["time"].(string)); err != nil {
		t.Fatalf("time not RFC3339Nano: %v", err)
	}
	// An error renders as its message, a duration in nanoseconds.
	if errRec["level"] != "ERROR" || errRec["err"] != "bad" || errRec["took"] != float64(1_500_000) {
		t.Fatalf("error = %v", errRec)
	}
	if ctx := context.Background(); !lg.Enabled(ctx, LevelError) || lg.Enabled(ctx, LevelInfo) {
		t.Error("Enabled does not follow the minimum level")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"": LevelInfo, "info": LevelInfo, "debug": LevelDebug,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
		"ERROR": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// The log levels ParseLevel names.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel maps a level name to a slog level; "" means LevelInfo.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "", "info":
		return LevelInfo, nil
	case "debug":
		return LevelDebug, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// NewLogger writes records at or above min to w as JSON lines
// (slog.JSONHandler: "time", "level", "msg", then the fields in call
// order).
func NewLogger(w io.Writer, min slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min}))
}

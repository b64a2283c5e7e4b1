package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level as its wire name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name to a Level; "" means LevelInfo.
func ParseLevel(s string) (Level, error) {
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

// Logger is a minimal leveled structured logger: one JSON object per
// line, `{"ts":..., "level":..., "msg":..., <fields>}`. It exists so
// optserve can emit machine-parseable request/drain logs without
// pulling a logging dependency into a stdlib-only module. A nil *Logger
// discards everything (every method is nil-safe), which is how the rest
// of the codebase keeps logging optional.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// NewLogger writes JSON lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// Enabled reports whether a record at lv would be written. Nil-safe.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Debug logs at LevelDebug. kv is alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info logs at LevelInfo. kv is alternating key, value pairs.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn logs at LevelWarn. kv is alternating key, value pairs.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error logs at LevelError. kv is alternating key, value pairs.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// Log logs at lv. Callers that would box fields for a record the level
// may drop check Enabled first. Nil-safe.
func (l *Logger) Log(lv Level, msg string, kv ...any) {
	if !l.Enabled(lv) {
		return
	}
	// Fields render in call order; a strict key order ("ts", "level",
	// "msg" first) keeps lines greppable and diffable.
	var b strings.Builder
	b.WriteString(`{"ts":`)
	writeJSONValue(&b, time.Now().Format(time.RFC3339Nano))
	b.WriteString(`,"level":`)
	writeJSONValue(&b, lv.String())
	b.WriteString(`,"msg":`)
	writeJSONValue(&b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(',')
		writeJSONValue(&b, key)
		b.WriteByte(':')
		writeJSONValue(&b, kv[i+1])
	}
	if len(kv)%2 == 1 {
		// A dangling key is a caller bug; surface it rather than drop it.
		b.WriteString(`,"!BADKEY":`)
		writeJSONValue(&b, kv[len(kv)-1])
	}
	b.WriteString("}\n")
	l.mu.Lock()
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

func writeJSONValue(b *strings.Builder, v any) {
	switch x := v.(type) {
	case error:
		v = x.Error()
	case time.Duration:
		v = x.String()
	}
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprint(v))
	}
	b.Write(enc)
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Logger is a small leveled logger for the cmds' diagnostics: warnings from
// the watcher, flush errors, progress notes. It renders text (grep-able
// "TIME LEVEL component: msg" lines) or structured JSON, and counts every
// emitted line into mira_log_messages_total{level} on the default registry
// so noisy components show up on /metrics.
//
// Program *output* — figures, summaries, CSV — stays on stdout via fmt;
// the logger is for diagnostics and writes to stderr by default.
type Logger struct {
	mu        sync.Mutex
	w         io.Writer
	json      bool
	min       Level
	component string
}

// Level orders log severities.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

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

// logLines counts emitted log lines by level across all loggers.
var logLines = NewCounterVec("mira_log_messages_total",
	"log lines emitted by the leveled logger, by level", "level")

// NewLogger creates a logger writing to w. format is "text" or "json"
// (anything else falls back to text); component names the program in every
// line. Lines below LevelInfo are suppressed.
func NewLogger(w io.Writer, format, component string) *Logger {
	if w == nil {
		w = os.Stderr
	}
	return &Logger{
		w:         w,
		json:      format == "json",
		min:       LevelInfo,
		component: component,
	}
}

// setLevel lowers or raises the minimum emitted level.
func (l *Logger) setLevel(min Level) {
	l.mu.Lock()
	l.min = min
	l.mu.Unlock()
}

// Debugf logs at debug level (suppressed by default).
func (l *Logger) Debugf(format string, args ...any) { l.emit(LevelDebug, format, args...) }

// Infof logs at info level.
func (l *Logger) Infof(format string, args ...any) { l.emit(LevelInfo, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.emit(LevelWarn, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.emit(LevelError, format, args...) }

type logLine struct {
	TS        string `json:"ts"`
	Level     string `json:"level"`
	Component string `json:"component,omitempty"`
	Msg       string `json:"msg"`
}

func (l *Logger) emit(lvl Level, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lvl < l.min {
		return
	}
	logLines.With(lvl.String()).Inc()
	msg := fmt.Sprintf(format, args...)
	ts := time.Now().UTC().Format(time.RFC3339)
	if l.json {
		line, err := json.Marshal(logLine{TS: ts, Level: lvl.String(), Component: l.component, Msg: msg})
		if err != nil {
			return
		}
		l.w.Write(append(line, '\n'))
		return
	}
	if l.component != "" {
		fmt.Fprintf(l.w, "%s %-5s %s: %s\n", ts, lvl, l.component, msg)
		return
	}
	fmt.Fprintf(l.w, "%s %-5s %s\n", ts, lvl, msg)
}

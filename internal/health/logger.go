package health

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a slog.Logger from the conventional -log-level and
// -log-format flag values (level: debug|info|warn|error, format:
// text|json). This is the one handler cliclive and clicsim route their
// diagnostics and the watchdog's verdict lines through.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("health: unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("health: unknown log format %q (want text or json)", format)
	}
}

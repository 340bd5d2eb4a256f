// Seeds the log-line naming bug class: runtime-assembled and
// non-snake_case slog attr keys.
package metricname

import (
	"context"
	"log/slog"
)

func logVerdict(l *slog.Logger, key string, n int) {
	ctx := context.Background()
	l.LogAttrs(ctx, slog.LevelWarn, "watchdog_verdict", slog.String("condition", "rto_storm"), slog.Int("peer", n))
	l.LogAttrs(ctx, slog.LevelInfo, "ok_line", slog.String(key, "v"))         // want `attr key passed to LogAttrs must be a compile-time constant`
	l.LogAttrs(ctx, slog.LevelInfo, "ok_line2", slog.String("Bad-Key", "v"))  // want `attr key "Bad-Key" passed to LogAttrs is not snake_case`
	l.LogAttrs(ctx, slog.LevelInfo, "ok_line3", slog.Int64("since_ns", 0))    // dynamic values are allowed
	l.LogAttrs(ctx, slog.LevelInfo, "no attrs")
}

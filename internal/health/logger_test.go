package health_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/health"
)

// record is one decoded JSON log line.
type record map[string]any

func decodeLines(t *testing.T, buf *bytes.Buffer) []record {
	t.Helper()
	var out []record
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	logger, err := health.NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("hello")
	if recs := decodeLines(t, &buf); len(recs) != 1 || recs[0]["msg"] != "hello" {
		t.Fatalf("json debug output: %q", buf.String())
	}

	buf.Reset()
	logger, err = health.NewLogger(&buf, "", "")
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("filtered") // default level is info
	logger.Info("shown")
	if out := buf.String(); strings.Contains(out, "filtered") || !strings.Contains(out, "shown") {
		t.Fatalf("default text output: %q", out)
	}

	if _, err := health.NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := health.NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

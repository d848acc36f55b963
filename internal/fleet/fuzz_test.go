package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"r3dla/internal/lab"
)

// FuzzReadStream feeds readStream arbitrary bytes as a run response
// body, as a buggy or foreign backend could send. No input may panic,
// every failure is one of the two backend faults a caller retries on
// (ErrUnavailable for a stream that ends early, ErrBackend for one that
// speaks garbage or reports an error), and a request succeeds only when
// the body holds a result line. The canned bodies of the run-stream
// tests seed it and run as ordinary cases under plain `go test`.
func FuzzReadStream(f *testing.F) {
	bigResult := `{"event":"result","result":{"workload":"mcf","config":"` + strings.Repeat("k", 5000) + `"}}` + "\n"
	for _, body := range []string{
		streamOK,
		streamError,
		streamTruncated,
		streamTruncated + "{not json}\n" + streamOK,         // malformed middle line
		streamOK[:len(streamOK)-20],                         // final line cut
		streamTruncated + bigResult,                         // crosses the scanner's first growth
		`{"event":"result","result":null}` + "\n",           // an empty result
		`{"event":"result","result":{"ipc":"fast"}}` + "\n", // a result of the wrong shape
	} {
		f.Add([]byte(body))
	}
	r := &Remote{name: "fuzz"}
	f.Fuzz(func(t *testing.T, body []byte) {
		var res lab.RunResult
		err := r.readStream(context.Background(), bytes.NewReader(body), &res)
		if err != nil {
			if !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrBackend) {
				t.Fatalf("error %v is neither ErrUnavailable nor ErrBackend", err)
			}
			return
		}
		for _, raw := range bytes.Split(body, []byte("\n")) {
			var line streamLine
			if json.Unmarshal(raw, &line) == nil && line.Event == "result" {
				return
			}
		}
		t.Fatalf("succeeded on a body with no result line: %q", body)
	})
}

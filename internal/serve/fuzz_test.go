package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// FuzzReadRecords: the body and the Content-Length are the client's. Whatever
// they are, readRecords does not panic, hands on at most maxBody bytes, and
// what it returns is exactly the body's non-empty lines (one trailing \r of a
// line is not part of it) — however wrong the declared length.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte("a\nb\r\n\n\r\nc"), int64(9))
	f.Add([]byte("+1\t0.1,0.2\tt1 t2\n"), int64(-1))
	f.Add([]byte("longer than declared\n"), int64(3))
	f.Add([]byte("x"), int64(1)<<62)
	f.Add([]byte("\r"), int64(0))
	f.Add([]byte(nil), int64(maxBody)+1)
	f.Fuzz(func(t *testing.T, body []byte, declared int64) {
		req := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: declared}
		recs, err := readRecords(req)
		if err != nil {
			if len(body) <= maxBody {
				t.Fatalf("a %d-byte body declared as %d: %v", len(body), declared, err)
			}
			return
		}
		var want [][]byte
		for _, line := range bytes.Split(body, newline) {
			if line = bytes.TrimSuffix(line, []byte{'\r'}); len(line) > 0 {
				want = append(want, line)
			}
		}
		total := 0
		for i, rec := range recs {
			if total += len(rec); i >= len(want) || !bytes.Equal(rec, want[i]) {
				t.Fatalf("record %d of %q (declared %d) is %q, want the lines %q", i, body, declared, rec, want)
			}
		}
		if len(recs) != len(want) || total > maxBody {
			t.Fatalf("%d records of %d bytes from %q, want %d", len(recs), total, body, len(want))
		}
	})
}

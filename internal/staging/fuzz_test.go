package staging

import (
	"bytes"
	"io"
	"testing"

	"nekrs-sensei/internal/adios"
)

// FuzzServerHandshake feeds hostile bytes to the server's handshake —
// the JSON hello decode plus adios.SpliceHandshake, the only path that
// reads peer bytes before a reader is bound. A hello is either
// rejected or yields a request whose session grace is never negative,
// and the spliced credit stream carries exactly the bytes that followed
// the hello on the wire, less the one newline the reader's encoder
// appends.
func FuzzServerHandshake(f *testing.F) {
	for _, seed := range []string{
		"{\"type\":\"hello\",\"role\":\"reader\"}\n\x01\x02\x01",
		`{"type":"hello","role":"reader","consumer":"viz","policy":"latest-only","depth":1,"arrays":["p"],"codecs":["quantize:1e-3"]}`,
		`{"type":"hello","role":"reader","session":"sess-1-1","resume":42,"session_ttl":1e300}` + "\n\x01",
		`{"type":"hello","role":"reader","new_session":true,"session_ttl":-5,"group":3}  ` + "\x01",
		`{"type":"hello","role":"writer"}`,
		`{"role":"reader","arrays":"p"}`,
		`{"role":"reader"`,
		"not json\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		req, dec, err := readHello(r)
		if err != nil {
			return
		}
		if req.SessionTTL < 0 {
			t.Fatalf("session grace %v from %q", req.SessionTTL, data)
		}
		want := data[dec.InputOffset():]
		if len(want) > 0 && want[0] == '\n' {
			want = want[1:]
		}
		credits, err := adios.SpliceHandshake(dec, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(credits)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("credit stream %q, want %q after the hello in %q", got, want, data)
		}
	})
}

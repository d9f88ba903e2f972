package cluster

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"coopabft/internal/serve"
)

// readReply is the hop's reply parser end to end: head, then body.
func readReply(br *bufio.Reader) (replyHead, *serve.Body, error) {
	hd, err := readHead(br)
	if err != nil {
		return hd, nil, err
	}
	var lr io.LimitedReader
	b, err := readBody(br, hd, &lr)
	return hd, b, err
}

// FuzzNodeReply holds the hop's reply parser to net/http's on the same
// bytes. The parser may refuse what net/http reads, but never panics, and
// every reply it accepts net/http reads too, with the same status,
// Retry-After, close flag and body, having consumed exactly as many bytes:
// it never reads past the body's declared end, nor stops short of it. The
// committed corpus is replies captured from real servers: a worker's small
// and verify-vote-sized 200s, its throttled 429 with Retry-After, a closed
// service's 503 with Connection: close, net/http's own 404 and 405, and a
// stub's chunked 200; TestHopReadsRealReplies requires the parser to
// accept every one of them.
func FuzzNodeReply(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}tail"))
	f.Add([]byte("HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\nConnection: keep-alive, Close\r\ncontent-length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\nnext"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		br := bufio.NewReader(rd)
		hd, body, err := readReply(br)
		if err != nil {
			return
		}
		defer serve.PutBody(body)
		used := len(data) - rd.Len() - br.Buffered()

		srd := bytes.NewReader(data)
		sbr := bufio.NewReader(srd)
		resp, err := http.ReadResponse(sbr, &http.Request{Method: http.MethodPost})
		if err != nil {
			t.Fatalf("accepted a reply net/http refuses: %v", err)
		}
		sbody, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("accepted a body net/http refuses: %v", err)
		}
		if hd.status != resp.StatusCode || hd.retryAfter != resp.Header.Get("Retry-After") || hd.close != resp.Close {
			t.Fatalf("read status %d, Retry-After %q, close %v; net/http %d, %q, %v",
				hd.status, hd.retryAfter, hd.close, resp.StatusCode, resp.Header.Get("Retry-After"), resp.Close)
		}
		if !bytes.Equal(body.Bytes(), sbody) {
			t.Fatalf("read body %q, net/http %q", body.Bytes(), sbody)
		}
		if sused := len(data) - srd.Len() - sbr.Buffered(); used != sused {
			t.Fatalf("consumed %d bytes, net/http %d", used, sused)
		}
	})
}

// TestHopReadsRealReplies: every reply of FuzzNodeReply's committed corpus,
// each captured from a real server, is accepted, with the status its file
// is named for.
func TestHopReadsRealReplies(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzNodeReply/*")
	if err != nil || len(files) < 7 {
		t.Fatalf("corpus: %d files, %v", len(files), err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")\n")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-value fuzz file", name)
		}
		hd, body, err := readReply(bufio.NewReader(strings.NewReader(data)))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		serve.PutBody(body)
		if want := name[strings.LastIndexByte(name, '_')+1:]; strconv.Itoa(hd.status) != want {
			t.Errorf("%s: status %d", name, hd.status)
		}
	}
}

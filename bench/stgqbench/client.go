package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Response headers the benchmark reads. They are public outputs of the
// program (docs/operations.md); the benchmark does not import their
// constants so that it keeps building when packages move.
const (
	hdrSession      = "X-STGQ-Session"
	hdrWriteSeq     = "X-STGQ-Write-Seq"
	hdrBackend      = "X-STGQ-Backend"
	hdrCache        = "X-STGQ-Cache"
	hdrServerTiming = "X-STGQ-Server-Timing"
)

// result is what one request produced, as seen by the client.
type result struct {
	// Latency counts from the send time in a closed loop and from the due
	// time in an open loop; Late is how long after the due time the
	// generator actually sent (open loop only).
	Latency, Late time.Duration
	// Status is the HTTP status, 0 on a transport error.
	Status   int
	WriteSeq uint64
	Backend  string
	Cached   bool
	Timing   []string // X-STGQ-Server-Timing values, kept only when asked
	Body     []byte   // kept only when asked
}

// answered reports whether the request got the service it asked for: any
// 2xx, or 422 for a search that ran to completion and proved there is no
// group. Everything else — 404 and 412 included — is a failure.
func (r *result) answered() bool {
	return (r.Status >= 200 && r.Status < 300) || r.Status == http.StatusUnprocessableEntity
}

// newHTTPClient allows no more connections than a workload may keep in
// flight.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        maxConns,
			MaxIdleConnsPerHost: maxConns,
			MaxConnsPerHost:     maxConns,
			IdleConnTimeout:     2 * time.Minute,
		},
	}
}

// sender issues ops against one base URL.
type sender struct {
	hc         *http.Client
	base       string
	keepTiming bool
}

// do sends o and fills res (Latency excepted: the caller owns the clock
// origin). keepBody retains the response body.
func (s *sender) do(ctx context.Context, o *op, keepBody bool, res *result) {
	req, err := http.NewRequestWithContext(ctx, o.Method, s.base+o.Path, strings.NewReader(o.Body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if o.Session != "" {
		req.Header.Set(hdrSession, o.Session)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if keepBody {
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			return
		}
		res.Body = buf.Bytes()
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return
	}
	res.Status = resp.StatusCode
	res.Backend = resp.Header.Get(hdrBackend)
	res.Cached = resp.Header.Get(hdrCache) != ""
	if v := resp.Header.Get(hdrWriteSeq); v != "" {
		res.WriteSeq, _ = strconv.ParseUint(v, 10, 64) // a malformed seq reads as 0 and fails the durability check
	}
	if s.keepTiming {
		res.Timing = resp.Header.Values(hdrServerTiming)
	}
}

// passResult is one pass: a result per op, in op order, and the wall time
// from the first send (or due time) to the last completion.
type passResult struct {
	Results []result
	Wall    time.Duration
}

// runPass drives ops with one goroutine per connection; op i belongs to
// connection i mod conns, which sends its ops in order. With rate > 0 the loop is
// open: op i is due at start + i/rate, a client sends its next op at its
// due time or as soon as its previous one completes, whichever is later,
// and latency counts from the due time. keep selects the ops whose bodies
// are retained.
func runPass(ctx context.Context, s *sender, ops []op, conns, rate int, keep func(i int) bool) passResult {
	out := passResult{Results: make([]result, len(ops))}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += conns {
				if ctx.Err() != nil {
					return
				}
				res := &out.Results[i]
				origin := time.Now()
				if rate > 0 {
					due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					res.Late = time.Since(due)
					origin = due
				}
				s.do(ctx, &ops[i], keep != nil && keep(i), res)
				res.Latency = time.Since(origin)
			}
		}(c)
	}
	wg.Wait()
	out.Wall = time.Since(start)
	return out
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// request is one generated HTTP request: its path and query, and the
// class the generator drew it from (used only for accounting).
type request struct {
	path  string
	class reqClass
	// id indexes the generator's own record of the request, so a
	// response can be checked against what was asked.
	id int
}

type reqClass uint8

const (
	classHot  reqClass = iota // a forecast for an already-warm tuple
	classCold                 // the first forecast of a new node
	classGrid                 // a grid or tune query with its own α list
)

// response is what a sender hands back for one request.
type response struct {
	req    request
	status int
	body   []byte // valid only during the callback
	err    error
	// latency is measured from the request's intended send time in the
	// open-loop phase and from its actual send time in the closed loop.
	latency time.Duration
	late    time.Duration
	rt      time.Duration // actual send to body read
}

// generator yields the workload's requests in a fixed order; calls are
// serialised by the load generator, so it needs no locking of its own.
type generator interface {
	next() request
}

// server runs a handler behind a real loopback listener.
type server struct {
	srv  *http.Server
	done chan struct{}
	addr string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		done: make(chan struct{}),
		addr: ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to end.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
}

// conn is one keep-alive HTTP/1.1 connection driven from a single
// goroutine: the request is written and the response read on the
// caller's goroutine. net/http's Transport hands every request between
// separate read and write goroutines, and on a shared VM the thread
// wake-ups those hand-offs need dominated, and scattered, the measured
// latency.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	req  []byte
}

// get sends GET path with the given extra header lines and reads the
// whole response body into buf.
func (c *conn) get(path, header string, buf *bytes.Buffer) (int, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		c.c, c.r = nc, bufio.NewReader(nc)
	}
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	c.req = append(c.req, "\r\n"...)
	c.req = append(c.req, header...)
	c.req = append(c.req, "\r\n"...)
	if _, err := c.c.Write(c.req); err != nil {
		c.close()
		return 0, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		c.close()
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// phase drives one load phase. Open loop: arrivals are a Poisson process
// at rate per second, fixed in advance of any response, and latency
// counts from each request's intended send time, so a slow server cannot
// hide queueing by slowing the generator down (coordinated omission).
// Closed loop (rate 0): each sender sends back to back until limit
// requests have been sent.
type phase struct {
	addr    string
	senders int
	rate    float64
	until   time.Time
	limit   int
	rng     *rand.Rand
	gen     generator
	onResp  func(*response)
	// tr, when set, records one http.request span per request and passes
	// its id and the request class to the server in headers.
	tr *tracer

	mu   sync.Mutex
	next time.Time
	sent int
}

// run drives the phase to its end and returns how many requests it sent
// and the phase's wall time.
func (p *phase) run() (int, time.Duration) {
	start := time.Now()
	p.next = start
	var wg sync.WaitGroup
	for s := 0; s < p.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.sender()
		}()
	}
	wg.Wait()
	return p.sent, time.Since(start)
}

// take draws the next request and its intended send time.
func (p *phase) take() (request, time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	at := time.Now()
	if p.rate > 0 {
		at = p.next
		p.next = p.next.Add(time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second)))
	}
	if (p.rate > 0 && !at.Before(p.until)) || (p.rate == 0 && p.sent >= p.limit) {
		return request{}, at, false
	}
	p.sent++
	return p.gen.next(), at, true
}

func (p *phase) sender() {
	c := &conn{addr: p.addr}
	defer c.close()
	var buf bytes.Buffer
	for {
		req, at, ok := p.take()
		if !ok {
			return
		}
		sleepUntil(at)
		sent := time.Now()
		var header string
		var sp *openSpan
		if p.tr != nil {
			sp = p.tr.openAt("http.request", 0, 0, sent)
			sp.s.Req = sp.s.ID
			header = fmt.Sprintf("%s: %d\r\n%s: %d\r\n", spanHeader, sp.s.ID, classHeader, req.class)
		}
		status, err := c.get(req.path, header, &buf)
		done := time.Now()
		if sp != nil {
			sp.closeAt(done, 1)
		}
		r := &response{req: req, status: status, body: buf.Bytes(), err: err, rt: done.Sub(sent)}
		if p.rate > 0 {
			r.latency = done.Sub(at)
			r.late = sent.Sub(at)
		} else {
			r.latency = r.rt
		}
		p.onResp(r)
	}
}

// sleepUntil blocks until t. The runtime's timers round short waits up
// to about a millisecond and overshoot long ones by several when the
// process is idle, which would dominate request latency, so the wait is
// a nanosleep on the sender's own thread with its timer slack set to the
// minimum.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) != nil {
	}
}

// setTimerSlack sets the calling thread's timer slack (Linux prctl
// PR_SET_TIMERSLACK); failures only cost precision.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// latencies collects per-request timings from concurrent senders.
type latencies struct {
	mu       sync.Mutex
	lat      []float64 // ms
	late     []float64 // ms
	rt       []float64 // ms
	fails    int64
	firstErr error
}

func (l *latencies) add(r *response) {
	l.mu.Lock()
	l.lat = append(l.lat, ms(r.latency))
	l.late = append(l.late, ms(r.late))
	l.rt = append(l.rt, ms(r.rt))
	if err := statusError(r); err != nil {
		l.fails++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	l.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// statusError describes a failed request, or returns nil.
func statusError(r *response) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	return nil
}

var errNoSamples = errors.New("no requests completed")

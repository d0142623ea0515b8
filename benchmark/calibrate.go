package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on are small virtual machines whose speed
// follows what their host is doing. On the one it was written on, the same
// binary on the same inputs answered 1090 and 1680 predicts per second twenty
// minutes apart, the machine switched between a fast and a slow state that
// differ by 30 % and last for minutes, and ten runs of any wall-clock metric
// spread by 20–45 % of their median. No window that fits the time a run may
// take averages that away.
//
// So every run also measures the machine. The load generator holds a
// reference server: a miniature of what cdml-serve does on a predict —
// net/http, split the body into records, parse numbers, hash tokens into a
// weight vector, encode the answers as JSON — written against the standard
// library only and frozen here, so that no change to the program can move
// it. Between traffic windows, while cdml-serve is idle, the same client
// code that drives cdml-serve drives the reference for a moment, with a
// 1-record and with a 128-record body. The run's median rates over the
// reference rates are the machine's speed during that run; end-to-end times
// are multiplied by it and end-to-end rates divided by it, so they read as
// they would on a machine of reference speed. Over ten runs that straddled
// both states of the machine this brought the spreads from 24–45 % down to
// 2–11 %; a pure CPU loop as the yardstick did not (it slowed by 42 % when
// the servers slowed by 23–32 %). The figures as measured are reported
// beside the scaled ones as raw.*, with machine.speed.

const (
	// calibSlice is how long one calibration sample drives the reference
	// with each body. Samples are short and many because the machine's speed
	// changes faster than once a second: forty samples spread over a run say
	// more than four that are ten times as long.
	calibSlice = 60 * time.Millisecond
	// The rates that count as speed 1, in requests per second over
	// closedLoopConns connections: what the machine the benchmark was
	// written on reaches in its fast state.
	referenceSmallRate = 45000.0
	referenceLargeRate = 9500.0
)

// reference is the frozen reference server, its clients, and the samples
// taken so far.
type reference struct {
	srv     *http.Server
	url     string
	conns   []*conn
	weights []float64
	bodies  [2][]byte    // 1 record, 128 records
	rates   [2][]float64 // per body: requests per second of each sample
}

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	r := &reference{
		url:     "http://" + ln.Addr().String() + "/",
		conns:   newConns(closedLoopConns),
		weights: make([]float64, 1<<15),
	}
	for i := range r.weights {
		r.weights[i] = float64(i%7) - 3
	}
	x := uint64(88172645463325252) // xorshift64: the bodies are the same on every machine
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i, records := range []int{1, 128} {
		var b []byte
		for ; records > 0; records-- {
			b = append(b, "+1\t"...)
			for c := 0; c < 4; c++ {
				b = strconv.AppendFloat(b, float64(next()%1000003)/997, 'f', 4, 64)
				b = append(b, ',')
			}
			b[len(b)-1] = '\t'
			for c := 0; c < 12; c++ {
				b = append(b, 't')
				b = strconv.AppendUint(b, next()%5000, 10)
				b = append(b, ' ')
			}
			b[len(b)-1] = '\n'
		}
		r.bodies[i] = b
	}
	r.srv = &http.Server{Handler: http.HandlerFunc(r.handle)}
	go func() { _ = r.srv.Serve(ln) }() // returns when close shuts the server down
	return r, nil
}

// handle answers one score per record: label <tab> numbers <tab> tokens.
func (r *reference) handle(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var scores []float64
	h := fnv.New64a()
	for _, rec := range bytes.Split(body, []byte{'\n'}) {
		parts := bytes.Split(rec, []byte{'\t'})
		if len(parts) != 3 {
			continue
		}
		s := 0.0
		for _, f := range bytes.Split(parts[1], []byte{','}) {
			v, _ := strconv.ParseFloat(string(f), 64) // the bodies hold numbers by construction
			s += v * 1e-3
		}
		for _, tok := range bytes.Fields(parts[2]) {
			h.Reset()
			_, _ = h.Write(tok) // a hash.Hash never fails
			s += r.weights[h.Sum64()&uint64(len(r.weights)-1)]
		}
		scores = append(scores, s)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct { // a failed write shows up as a failed request on the client
		Predictions []float64 `json:"predictions"`
		Served      int       `json:"served"`
	}{scores, len(scores)})
}

// sample drives the reference closed-loop with each body for calibSlice.
// The caller makes sure cdml-serve is idle meanwhile.
func (r *reference) sample() error {
	for i, body := range r.bodies {
		answered := make([]int, len(r.conns))
		errs := make([]error, len(r.conns))
		var wg sync.WaitGroup
		start := time.Now()
		for w, c := range r.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < calibSlice {
					code, resp, err := c.post(r.url, body)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("status %d: %.200s", code, resp)
					}
					if err != nil {
						errs[w] = fmt.Errorf("reference server: %w", err)
						return
					}
					answered[w]++
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		total := 0
		for w, n := range answered {
			if errs[w] != nil {
				return errs[w]
			}
			total += n
		}
		r.rates[i] = append(r.rates[i], float64(total)/elapsed.Seconds())
	}
	return nil
}

// speed is the machine's speed over the run, 1 being the reference machine:
// the geometric mean of how fast it served the small and the large body.
func (r *reference) speed() float64 {
	return math.Sqrt(median(r.rates[0]) / referenceSmallRate * median(r.rates[1]) / referenceLargeRate)
}

func (r *reference) close() {
	closeConns(r.conns)
	_ = r.srv.Close() // nothing is in flight
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prairie/internal/qgen"
	"prairie/internal/server"
)

// This file holds the two service workloads: closed-loop keep-alive
// clients posting /v1/optimize to an optserve child. Closed loop because
// a caller cannot execute a query before its plan returns.

// clients is the number of closed-loop connections: two, but never more
// than the host has processors, or the clients would measure each other.
func clients() int {
	return min(2, runtime.NumCPU())
}

// cycleLen is the length of the request cycle the clients walk round
// and round.
const cycleLen = 1024

// requestCycle is the request stream: one fixed zipf sample of the pool.
// The run's seed decides where in the cycle the clients start, not its
// order: a 20 s serve_churn run sends little more than one lap, and
// which of the pool's few 100 ms searches miss the 32-entry cache is
// settled by the order, so reshuffling it per seed moved allocations per
// request by 10% and throughput by 20% between seeds on identical code.
func requestCycle(pool []program) []int {
	return qgen.ZipfDraws(len(pool), cycleLen, zipfS, catalogSeed)
}

// cycleStart is the seed's starting position in the cycle.
func cycleStart(seed int64) int {
	return int(uint64(seed) * 0x9e3779b97f4a7c15 % cycleLen)
}

// respView is the part of an optimize response the benchmark checks.
type respView struct {
	PlanText string          `json:"plan_text"`
	Plan     json.RawMessage `json:"plan"`
	Cost     float64         `json:"cost"`
	CacheHit bool            `json:"cache_hit"`
}

func (v respView) matches(ref answer) bool {
	return v.PlanText == ref.PlanText && sameCost(v.Cost, ref.Cost) && string(v.Plan) == ref.PlanJSON
}

// poster issues optimize requests for the programs of one pool.
type poster struct {
	url    string
	hc     *http.Client
	bodies [][]byte
}

func newPoster(base string, pool []program) (*poster, error) {
	p := &poster{
		url: base + "/v1/optimize",
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients()},
			Timeout:   30 * time.Second,
		},
	}
	for _, prog := range pool {
		b, err := json.Marshal(server.OptimizeRequest{Ruleset: prog.World, Query: prog.Spec, IncludePlan: true})
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, b)
	}
	return p, nil
}

func (p *poster) close() { p.hc.CloseIdleConnections() }

// post sends the request for pool[i] and stamps the latency once the
// whole body has been read; decoding happens after the stamp.
func (p *poster) post(i int, buf *bytes.Buffer) (lat time.Duration, status int, v respView, err error) {
	start := time.Now()
	resp, err := p.hc.Post(p.url, "application/json", bytes.NewReader(p.bodies[i]))
	if err != nil {
		return time.Since(start), 0, v, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return lat, resp.StatusCode, v, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, resp.StatusCode, v, nil
	}
	err = json.Unmarshal(buf.Bytes(), &v)
	return lat, resp.StatusCode, v, err
}

// prime asks for every program once, in pool order, and returns the
// responses as reference answers (still to be gated).
func (p *poster) prime(pool []program) (map[program]answer, error) {
	refs := map[program]answer{}
	var buf bytes.Buffer
	for i, prog := range pool {
		_, status, v, err := p.post(i, &buf)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prog, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", prog, status, buf.String())
		}
		refs[prog] = answer{PlanText: v.PlanText, Cost: v.Cost, PlanJSON: string(v.Plan)}
	}
	return refs, nil
}

// loadStats is what the closed-loop clients observed.
type loadStats struct {
	Lat       []float64 // µs at nominal host speed, correct 200s only
	Attempted int
	Shed      int // 429 / 503
	Errors    int // transport errors, other statuses, undecodable bodies
	Wrong     int // 200 but not the verified reference
	Hits      int
	FirstErr  error
	Nominal   time.Duration // the load's length at nominal host speed
	Note      string
}

func (ls loadStats) failed() int { return ls.Shed + ls.Errors + ls.Wrong }

// load runs the closed-loop clients over one shared request cycle for
// cfg.Seconds. The client that sends request number RSSAfter calls
// checkpoint first.
func (p *poster) load(cfg config, refs map[program]answer, checkpoint func()) loadStats {
	pool := cfg.Workload.Pool
	draws := requestCycle(pool)
	var (
		next  atomic.Int64
		mu    sync.Mutex
		total loadStats
		wg    sync.WaitGroup
	)
	first := int64(cycleStart(cfg.Seed))
	next.Store(first)
	// The calibration slices run beside the clients, under the same
	// contention the requests see; they take well under 1% of one core.
	cal := newCalibrator(false)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go cal.run(stop, stopped)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ls loadStats
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				n := next.Add(1) - 1
				if n-first == int64(cfg.Workload.RSSAfter) {
					checkpoint()
				}
				i := draws[int(n)%len(draws)]
				lat, status, v, err := p.post(i, &buf)
				ls.Attempted++
				switch {
				case err != nil:
					ls.Errors++
					if ls.FirstErr == nil {
						ls.FirstErr = fmt.Errorf("%s: %w", pool[i], err)
					}
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					ls.Shed++
				case status != http.StatusOK:
					ls.Errors++
					if ls.FirstErr == nil {
						ls.FirstErr = fmt.Errorf("%s: status %d: %s", pool[i], status, buf.String())
					}
				case !v.matches(refs[pool[i]]):
					ls.Wrong++
					if ls.FirstErr == nil {
						ls.FirstErr = fmt.Errorf("%s: response %s differs from verified reference %s", pool[i], v.PlanText, refs[pool[i]].PlanText)
					}
				default:
					ls.Lat = append(ls.Lat, cal.scale(lat))
					if v.CacheHit {
						ls.Hits++
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.Lat = append(total.Lat, ls.Lat...)
			total.Attempted += ls.Attempted
			total.Shed += ls.Shed
			total.Errors += ls.Errors
			total.Wrong += ls.Wrong
			total.Hits += ls.Hits
			if total.FirstErr == nil {
				total.FirstErr = ls.FirstErr
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	<-stopped
	total.Nominal, total.Note = cal.nominal, cal.note(wall)
	return total
}

// runServe drives a real optserve child started with its default flags
// (plus the address, the seed and, for serve_churn, -cache-size).
func runServe(cfg config) (*outcome, error) {
	wl := cfg.Workload
	bin, err := buildOptserve(cfg)
	if err != nil {
		return nil, err
	}
	args := []string{"-seed", strconv.Itoa(catalogSeed)}
	if wl.CacheSize != 0 {
		args = append(args, "-cache-size", strconv.Itoa(wl.CacheSize))
	}
	logPath := filepath.Join(cfg.OutDir, "optserve-"+wl.Name+".log")

	// Set-up is what an operator waits for: process start to /healthz
	// 200, then one pass that fills the cache.
	var (
		c     *child
		post  *poster
		refs  map[program]answer
		setup []float64
	)
	for i := 0; i < cfg.Workload.SetupReps; i++ {
		if c != nil {
			post.close()
			c.stop()
		}
		s, err := timeSetup(func() (err error) {
			if c, err = startChild(bin, logPath, args...); err != nil {
				return err
			}
			if post, err = newPoster(c.base, wl.Pool); err == nil {
				refs, err = post.prime(wl.Pool)
			}
			if err != nil {
				c.stop()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	defer c.stop()
	defer post.close()

	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	g, err := e.gatePool(wl.Pool, refs)
	if err != nil {
		return nil, err
	}

	m0, err := c.mallocs()
	if err != nil {
		return nil, err
	}
	var rss float64
	var rssErr error
	readRSS := func() { rss, rssErr = peakRSSMB(c.pid()) }
	ls := post.load(cfg, refs, readRSS)
	m1, err := c.mallocs()
	if err != nil {
		return nil, err
	}
	if ls.Attempted <= wl.RSSAfter {
		readRSS()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if len(ls.Lat) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", ls.FirstErr)
	}

	asc := sorted(ls.Lat)
	out := &outcome{
		Attempted: ls.Attempted, Failed: ls.failed(), Err: ls.FirstErr, Gate: g,
		Metrics: endToEnd(setup, sample{quantile(asc, 0.50), "us", len(asc)}, sample{quantile(asc, 0.99), "us", len(asc)},
			len(asc), ls.Attempted, ls.Nominal, m1-m0, rss),
	}
	out.Notes = append(out.Notes, ls.Note)
	out.Notes = append(out.Notes, fmt.Sprintf("%d clients, hit rate %.4f, shed %d, errors %d, wrong %d",
		clients(), float64(ls.Hits)/float64(len(asc)), ls.Shed, ls.Errors, ls.Wrong))
	return out, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
)

// The in-process fleet probe's inputs (fleetLayers in traced.go): the
// requests a client of a reprod fleet makes. The schedule comes in
// blocks of fleetBlock requests: all warm reads of primed paper units
// and scenarios, except one cold ad-hoc scenario asked for twice in a
// row, once through each replica — so one of the two requests crosses
// the fleet proxy and the two coalesce onto one computation.
const (
	fleetClients = 2  // connections priming runs over
	fleetBlock   = 20 // requests per schedule block; 2 are cold
	// A cold scenario's budget is coldBudget plus a seed-derived
	// offset below coldBand: a distinct key every time, at a
	// near-constant cost.
	coldBudget = 100_000
	coldBand   = 5_000
)

// fleetUnits are the primed paper units: the ones whose primers a
// quick replica fills in about a second.
var fleetUnits = []string{"table1", "table3", "fig6", "fig7", "fig8", "fig9"}

// request is one scheduled call into the fleet.
type request struct {
	key     string // what the answer must match: a primed key or a cold key
	path    string
	body    []byte // POST body; nil means GET
	replica int
	cold    bool
}

func unitRequest(unit string) request {
	return request{key: "unit/" + unit, path: "/v1/units/" + unit}
}

func scenarioRequest(key string, sc experiments.Scenario) (request, error) {
	body, err := json.Marshal(sc)
	if err != nil {
		return request{}, err
	}
	return request{key: key, path: "/v1/scenarios", body: body}, nil
}

// fetch performs rq against base and returns the body.
func fetch(c *http.Client, base string, rq request) ([]byte, error) {
	var resp *http.Response
	var err error
	if rq.body == nil {
		resp, err = c.Get(base + rq.path)
	} else {
		resp, err = c.Post(base+rq.path, "application/json", bytes.NewReader(rq.body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", base, rq.path, resp.StatusCode, b)
	}
	return b, nil
}

// fleetInputs are a run's seed-derived requests.
type fleetInputs struct {
	warm      []request
	usedCold  map[int]bool
	primedSet []experiments.Scenario
}

func newFleetInputs(r *run) (*fleetInputs, error) {
	in := &fleetInputs{usedCold: map[int]bool{}}
	for _, u := range fleetUnits {
		in.warm = append(in.warm, unitRequest(u))
	}
	groups := []string{"hadoop", "mpi", "parsec"}
	for i := 0; i < 4; i++ {
		sc := experiments.Scenario{
			Name:   "primed-" + strconv.Itoa(i),
			Groups: []string{groups[r.rng.Intn(len(groups))]},
			Budget: 40_000 + int64(r.rng.Intn(20_000)),
			Views:  []string{"inst", "data"}[:1+r.rng.Intn(2)],
		}
		rq, err := scenarioRequest("primed/"+sc.Name, sc)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, rq)
		in.primedSet = append(in.primedSet, sc)
	}
	return in, nil
}

// coldScenario returns a scenario no earlier request asked for.
func (in *fleetInputs) coldScenario(r *run) experiments.Scenario {
	off := r.rng.Intn(coldBand)
	for in.usedCold[off] {
		off = r.rng.Intn(coldBand)
	}
	in.usedCold[off] = true
	return experiments.Scenario{Groups: []string{"mpi"}, Budget: coldBudget + int64(off), Views: []string{"inst"}}
}

// block returns fleetBlock scheduled requests: warm reads at random
// replicas with one cold pair (replica 0 and 1 in a random order) at a
// random position.
func (in *fleetInputs) block(r *run) ([]request, error) {
	out := make([]request, 0, fleetBlock)
	at := r.rng.Intn(fleetBlock - 1)
	for len(out) < fleetBlock {
		if len(out) == at {
			sc := in.coldScenario(r)
			rq, err := scenarioRequest(fmt.Sprintf("cold/%d", sc.Budget), sc)
			if err != nil {
				return nil, err
			}
			rq.cold = true
			first := r.rng.Intn(2)
			a, b := rq, rq
			a.replica, b.replica = first, 1-first
			out = append(out, a, b)
			continue
		}
		rq := in.warm[r.rng.Intn(len(in.warm))]
		rq.replica = r.rng.Intn(2)
		out = append(out, rq)
	}
	return out, nil
}

// prime computes every warm key (spread over both replicas and both
// clients) and then reads each through both replicas: the two answers
// must agree, and unit answers must match the committed digests. It
// returns the primed bytes by key.
func prime(replicas []string, c *http.Client, warm []request, ref referenceDigests) (map[string][]byte, error) {
	if err := forEach(len(warm), func(i int) error {
		_, err := fetch(c, replicas[i%len(replicas)], warm[i])
		return err
	}); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	primed := make(map[string][]byte, len(warm))
	for _, rq := range warm {
		got := make([][]byte, len(replicas))
		for i, url := range replicas {
			b, err := fetch(c, url, rq)
			if err != nil {
				return nil, fmt.Errorf("prime: %w", err)
			}
			got[i] = b
		}
		if err := checkEqual("primed "+rq.key+" across replicas", got[1], got[0]); err != nil {
			return nil, err
		}
		if unit, ok := bytes.CutPrefix([]byte(rq.key), []byte("unit/")); ok {
			if err := checkDigest("primed "+rq.key, got[0], ref.PaperQuick[string(unit)]); err != nil {
				return nil, err
			}
		}
		primed[rq.key] = got[0]
	}
	return primed, nil
}

// forEach runs fn(0..n-1) on fleetClients goroutines and returns the
// first error.
func forEach(n int, fn func(i int) error) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: fleetClients},
		Timeout:   2 * time.Minute,
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/controlapi"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
)

var daemonWorkload = workload{
	name: "daemon",
	why: "crspectred jobs from two Go clients to an in-process server on loopback: the only " +
		"workload with telemetry sinks, artifacts written and read back, and HTTP on the path.",
	loops: daemonClients, cycle: 1 + attacksPerCycle, minOps: daemonCycles(len(attackCombos()), attacksPerCycle),
	setup: setupDaemon,
}

// Job shapes. Attack jobs run defense.Evaluate repetitions; the campaign
// job is a small Fig. 5, which writes a full-ring trace.json. The server
// keeps every job's event ring (3 MiB) for its lifetime, so a campaign
// job every 7 attack jobs keeps a run to about a hundred jobs and its
// peak RSS well under a GiB; six cycles cover every attack combo.
const (
	attackReps      = 8
	attacksPerCycle = 7
	statusPoll      = 2 * time.Millisecond
	daemonMaxJobs   = 2
	daemonWorkers   = 1
)

type attackCombo struct{ variant, posture string }

// attackCombos is every variant × posture pair of the job vocabulary.
func attackCombos() []attackCombo {
	var out []attackCombo
	for _, v := range spectre.VariantNames() {
		for _, p := range defense.PostureNames() {
			out = append(out, attackCombo{v, p})
		}
	}
	return out
}

// daemonCycles is the number of ops per client, in whole cycles, after
// which the clients together have run every attack combo once.
func daemonCycles(combos, perCycle int) int {
	per := perCycle * daemonClients
	return (combos + per - 1) / per * (1 + perCycle)
}

// daemonInst is an in-process crspectred with its clients. Each client's
// cycle is the campaign job and then perCycle attack jobs; the clients
// take the attack combos in turn, round-robin, across cycles.
type daemonInst struct {
	seed     int64
	dir      string
	srv      *controlapi.Server
	hs       *http.Server
	served   chan struct{}
	clients  []*client.Client
	httpc    []*http.Client
	combos   []attackCombo
	perCycle int
	campaign controlapi.JobSpec
	check    *outputCheck
	pinned   bool
}

func setupDaemon(seed int64, tiny bool, dir string) (instance, error) {
	d := &daemonInst{
		seed: seed, dir: dir, combos: attackCombos(), perCycle: attacksPerCycle, pinned: !tiny,
		campaign: controlapi.JobSpec{Kind: "fig5", Seed: seed, Samples: 120, Attempts: 4},
		check:    newOutputCheck("daemon", seed, false),
		served:   make(chan struct{}),
	}
	if tiny {
		d.combos, d.perCycle = d.combos[:2*daemonClients], 2
		d.campaign.Samples, d.campaign.Attempts = 6, 1
	}
	srv, err := controlapi.New(controlapi.Options{DataDir: dir, MaxJobs: daemonMaxJobs, DefaultWorkers: daemonWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < daemonClients; i++ {
		h := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		d.httpc = append(d.httpc, h)
		d.clients = append(d.clients, client.New(base, client.WithHTTPClient(h)))
	}
	if err := d.checkInputs(base); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// checkInputs waits for the server to answer its health check and
// validates every job spec a run submits the way the server decodes it.
func (d *daemonInst) checkInputs(base string) error {
	resp, err := d.httpc[0].Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon health check: HTTP %d", resp.StatusCode)
	}
	specs := []controlapi.JobSpec{d.campaign}
	for _, c := range d.combos {
		specs = append(specs, d.attackSpec(c))
	}
	for _, spec := range specs {
		blob, err := json.Marshal(spec)
		if err == nil {
			_, err = controlapi.DecodeJobSpec(bytes.NewReader(blob))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *daemonInst) cycle() int { return 1 + d.perCycle }

// spec returns the job of op k on loop `loop`, the key of its output and
// the artifact holding it.
func (d *daemonInst) spec(loop, k int) (controlapi.JobSpec, string, string) {
	q, p := k/d.cycle(), k%d.cycle()
	if p == 0 {
		return d.campaign, "fig5", "fig5.csv"
	}
	c := d.combos[((q*d.perCycle+p-1)*daemonClients+loop)%len(d.combos)]
	return d.attackSpec(c), "attack/" + c.variant + "/" + c.posture, "attack.json"
}

func (d *daemonInst) attackSpec(c attackCombo) controlapi.JobSpec {
	return controlapi.JobSpec{
		Kind: "attack", Seed: d.seed, Reps: attackReps, Perturb: true,
		Variant: c.variant, Posture: c.posture,
	}
}

func (d *daemonInst) op(ctx context.Context, loop, k int, tr *tracer) error {
	spec, key, artifact := d.spec(loop, k)
	out, wait, err := d.runJob(ctx, tr, d.clients[loop], spec, artifact)
	if err != nil {
		return fmt.Errorf("daemon seed %d: %s job: %w", d.seed, key, err)
	}
	if tr != nil && spec.Kind == "attack" {
		tr.count("controlapi.attack_job_ns", float64(wait))
		tr.count("controlapi.attack_jobs", 1)
	}
	return d.check.check(key, out)
}

// runJob submits one job, polls its status until it is terminal, reads
// its artifact listing and fetches one artifact, then deletes the job's
// artifact directory so a long run's disk use stays flat. It returns the
// artifact and the submit-to-terminal time.
func (d *daemonInst) runJob(ctx context.Context, tr *tracer, cl *client.Client, spec controlapi.JobSpec, artifact string) ([]byte, time.Duration, error) {
	start := time.Now()
	_, end := tr.span(ctx, "client.submit")
	st, err := cl.Submit(ctx, spec)
	end()
	if err != nil {
		return nil, 0, err
	}
	// client.WaitDone's backoff (50 ms growing to 1 s) would round the
	// latency up, and status timestamps have whole-second resolution:
	// poll instead.
	phase := st.State
	_, end = tr.span(ctx, "controlapi."+string(phase))
	for !st.State.Terminal() {
		time.Sleep(statusPoll)
		if st, err = cl.Status(ctx, st.ID); err != nil {
			end()
			return nil, 0, err
		}
		if st.State != phase && !st.State.Terminal() {
			end()
			phase = st.State
			_, end = tr.span(ctx, "controlapi."+string(phase))
		}
	}
	end()
	wait := time.Since(start)
	if st.State != controlapi.StateDone {
		return nil, wait, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	_, end = tr.span(ctx, "client.fetch")
	defer end()
	arts, err := cl.Artifacts(ctx, st.ID)
	if err != nil {
		return nil, wait, err
	}
	if tr != nil {
		var size int64
		for _, a := range arts {
			size += a.Size
		}
		tr.count("bench.ops", 1)
		tr.count("controlapi.artifact_bytes", float64(size))
	}
	var buf bytes.Buffer
	if _, err := cl.Fetch(ctx, st.ID, artifact, &buf); err != nil {
		return nil, wait, err
	}
	if err := os.RemoveAll(filepath.Join(d.dir, st.ID)); err != nil {
		return nil, wait, err
	}
	return buf.Bytes(), wait, nil
}

// probe takes the two baselines of the daemon's overhead ratios: every
// attack combo evaluated directly, the way an attack job runs it but
// without the daemon around it; and the campaign job's section run bare
// and with the per-job telemetry sinks the daemon attaches.
func (d *daemonInst) probe(ctx context.Context, tr *tracer) error {
	for _, c := range d.combos {
		v, _ := spectre.VariantByName(c.variant)
		p, _ := defense.PostureByName(c.posture)
		atk := defense.Attacker{Variant: v, Perturb: true, LeakCanary: true, LeakLayout: true}
		start := time.Now()
		if _, err := sched.Map(ctx, daemonWorkers, attackReps, func(_ context.Context, i int) (defense.Outcome, error) {
			return defense.Evaluate(p, atk, sched.DeriveSeed(d.seed, uint64(i)))
		}); err != nil {
			return err
		}
		tr.count("controlapi.direct_ns", float64(time.Since(start)))
		tr.count("controlapi.direct_runs", 1)
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = d.seed
	cfg.SamplesPerClass, cfg.Attempts = d.campaign.Samples, d.campaign.Attempts
	cfg.Workers = daemonWorkers
	start := time.Now()
	if err := experiments.RunCampaign(cfg, experiments.CampaignSpec{Fig5: true}, io.Discard, ""); err != nil {
		return err
	}
	tr.count("telemetry.bare_ns", float64(time.Since(start)))
	rec := telemetry.NewRecorder(0)
	rec.Exclude(telemetry.KindRetire)
	cfg.Telemetry, cfg.Metrics = rec, telemetry.NewRegistry()
	cfg.Tracker = sched.NewTracker(cfg.Metrics, rec, nil)
	start = time.Now()
	if err := experiments.RunCampaign(cfg, experiments.CampaignSpec{Fig5: true}, io.Discard, ""); err != nil {
		return err
	}
	tr.count("telemetry.recorded_ns", float64(time.Since(start)))
	return nil
}

func (d *daemonInst) finish() ([]string, error) {
	all, n := d.check.summary()
	if want := 1 + len(d.combos); n != want {
		return nil, fmt.Errorf("daemon seed %d: %d of %d job outputs seen", d.seed, n, want)
	}
	summary := fmt.Sprintf("outputs: fig5.csv and %d attack.json sets, every job done; ", len(d.combos))
	if !d.pinned {
		return []string{summary + "output digest " + all}, nil
	}
	line, err := pinLine("daemon", d.seed, all)
	return []string{summary + line}, err
}

func (d *daemonInst) close() {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // an unfinished shutdown leaves only idle connections
	<-d.served
	for _, h := range d.httpc {
		h.CloseIdleConnections()
	}
}

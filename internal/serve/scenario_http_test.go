package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"javaflow/internal/scenario"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// scenarioServer serves the full named corpus with a scenario registry
// attached, so catalog suite bundles resolve inside the node's population.
func scenarioServer(t *testing.T) (*httptest.Server, *scenario.Registry) {
	t.Helper()
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
	svc := NewService(sched, sim.Configurations(), workload.NamedMethods())
	reg := scenario.NewRegistry(scenario.Defaults{
		Seed: 2014, GenCount: 24, MaxMeshCycles: testMaxCycles,
	})
	svc.SetScenarios(reg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestHTTPScenarioList(t *testing.T) {
	ts, reg := scenarioServer(t)

	var infos []ScenarioInfo
	getJSON(t, ts.URL+"/v1/scenarios", &infos)
	names := reg.Names()
	if len(infos) != len(names) {
		t.Fatalf("got %d scenarios, registry has %d", len(infos), len(names))
	}
	byName := make(map[string]ScenarioInfo, len(infos))
	for i, info := range infos {
		if info.Name != names[i] {
			t.Fatalf("scenario %d = %q, want catalog order %q", i, info.Name, names[i])
		}
		byName[info.Name] = info
	}
	// A scenario is only a sweep: the tier, fault-schedule and
	// differential-oracle row fields are gone, and so are the catalog
	// entries that used them.
	var rows []map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/scenarios", &rows)
	for _, row := range rows {
		for _, key := range []string{"tier", "faults", "oracle"} {
			if _, ok := row[key]; ok {
				t.Fatalf("scenario row %s still carries %q", row["name"], key)
			}
		}
	}
	for _, gone := range []string{"adversarial-oracle", "overload", "chaos-fleet"} {
		if _, ok := byName[gone]; ok {
			t.Fatalf("%s is still in the catalog", gone)
		}
	}

	// Describe round-trips the full bundle.
	var b scenario.Bundle
	getJSON(t, ts.URL+"/v1/scenarios/crypto", &b)
	if b.Name != "crypto" || len(b.Workload.Suites) != 1 {
		t.Fatalf("described bundle = %+v", b)
	}

	// Unknown names 404 with the machine-readable kind.
	resp, err := http.Get(ts.URL + "/v1/scenarios/no-such")
	if err != nil {
		t.Fatal(err)
	}
	var ep ErrorPayload
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
		t.Fatalf("decode error payload: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || ep.Kind != ErrKindNotFound {
		t.Fatalf("unknown scenario: status %d kind %q, want 404 %q", resp.StatusCode, ep.Kind, ErrKindNotFound)
	}
}

// TestHTTPScenarioListWithoutRegistry: a daemon started without a registry
// reports an empty catalog, not an error.
func TestHTTPScenarioListWithoutRegistry(t *testing.T) {
	ts, _ := testServer(t, 2)
	var infos []ScenarioInfo
	getJSON(t, ts.URL+"/v1/scenarios", &infos)
	if len(infos) != 0 {
		t.Fatalf("got %d scenarios from a registry-less node", len(infos))
	}
	resp, _ := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Scenario: "crypto"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("scenario batch without registry: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPScenarioKeyedBatch: a {"scenario": name} batch must be
// byte-identical to the explicit configs+methods request it resolves to.
func TestHTTPScenarioKeyedBatch(t *testing.T) {
	ts, reg := scenarioServer(t)

	resolved, err := reg.Resolve("crypto")
	if err != nil {
		t.Fatal(err)
	}
	explicit := BatchRequest{MaxMeshCycles: testMaxCycles, SummaryOnly: true}
	for _, cfg := range resolved.Configs {
		explicit.Configs = append(explicit.Configs, cfg.Name)
	}
	for _, m := range resolved.Methods {
		explicit.Methods = append(explicit.Methods, m.Signature())
	}

	resp, wantBody := postJSON(t, ts.URL+"/v1/batch", explicit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit batch: status %d: %s", resp.StatusCode, wantBody)
	}
	resp, gotBody := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Scenario: "crypto", SummaryOnly: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario batch: status %d: %s", resp.StatusCode, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("scenario-keyed batch differs from its explicit form:\n%s\nvs\n%s", gotBody, wantBody)
	}
}

// TestHTTPScenarioBatchErrors pins the error contract of scenario-keyed
// submission: combining forms is a 400, unknown scenarios 404, and a
// scenario whose population this node does not serve is a 400 the client
// can act on.
func TestHTTPScenarioBatchErrors(t *testing.T) {
	ts, _ := scenarioServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Scenario: "crypto", Configs: []string{"Baseline"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("combined request: status %d: %s, want 400", resp.StatusCode, body)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Scenario: "no-such"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404", resp.StatusCode)
	}

	// chapter7 includes the generated corpus; this node serves only the
	// named methods, so the scenario is out of population.
	resp, body = postJSON(t, ts.URL+"/v1/batch", BatchRequest{Scenario: "chapter7"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-corpus scenario: status %d: %s, want 400", resp.StatusCode, body)
	}
	var ep ErrorPayload
	if err := json.Unmarshal(body, &ep); err != nil || ep.Error == "" {
		t.Fatalf("out-of-corpus error payload = %s (%v)", body, err)
	}
}

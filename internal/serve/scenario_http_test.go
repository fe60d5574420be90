package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"javaflow/internal/scenario"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// scenarioServer serves the full named corpus with the scenario presets
// attached, so the catalog's suite presets select inside the node's
// population.
func scenarioServer(t *testing.T) *httptest.Server {
	t.Helper()
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
	svc := NewService(sched, sim.Configurations(), workload.NamedMethods())
	svc.SetScenarios(scenario.Catalog())
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPScenarioList(t *testing.T) {
	ts := scenarioServer(t)

	var infos []ScenarioInfo
	getJSON(t, ts.URL+"/v1/scenarios", &infos)
	catalog := scenario.Catalog()
	if len(infos) != len(catalog) {
		t.Fatalf("got %d scenarios, catalog has %d", len(infos), len(catalog))
	}
	byName := make(map[string]ScenarioInfo, len(infos))
	for i, info := range infos {
		if info.Name != catalog[i].Name {
			t.Fatalf("scenario %d = %q, want catalog order %q", i, info.Name, catalog[i].Name)
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

	// Describe returns the list's row for the name.
	var info ScenarioInfo
	getJSON(t, ts.URL+"/v1/scenarios/crypto", &info)
	if !reflect.DeepEqual(info, byName["crypto"]) {
		t.Fatalf("described scenario = %+v, want the list row %+v", info, byName["crypto"])
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

// TestHTTPScenarioListWithoutRegistry: a service with no presets attached
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
	ts := scenarioServer(t)

	p, err := scenario.Lookup("crypto")
	if err != nil {
		t.Fatal(err)
	}
	methods, err := p.Select(workload.NamedMethods())
	if err != nil {
		t.Fatal(err)
	}
	explicit := BatchRequest{MaxMeshCycles: testMaxCycles, SummaryOnly: true}
	for _, cfg := range sim.Configurations() {
		explicit.Configs = append(explicit.Configs, cfg.Name)
	}
	for _, m := range methods {
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
// submission: combining forms is a 400 and unknown scenarios 404.
func TestHTTPScenarioBatchErrors(t *testing.T) {
	ts := scenarioServer(t)

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
}

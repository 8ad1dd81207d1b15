package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/service"
)

// TestAdviceUnmarshalableRowIs500 drives the advice error path: a point
// whose row cannot be encoded (a NaN utilization metric) lies on the front
// of one hot filter (app=lammps) and one cold filter (app+sku). Both must
// answer a 500 JSON error, stay out of the body cache, and answer the same
// 500 when repeated; sibling filters whose fronts exclude the point still
// serve the reference bytes.
func TestAdviceUnmarshalableRowIs500(t *testing.T) {
	st := dataset.NewStore()
	for i := 0; i < 24; i++ {
		st.Add(identityPoint(i))
	}
	bad := identityPoint(0)
	bad.ScenarioID = "nan-metric"
	bad.AppName = "lammps"
	bad.ExecTimeSec, bad.CostUSD = 1, 0.001 // dominates every lammps run
	bad.Utilization.CPUUtil = math.NaN()
	st.Add(bad)
	adv := storeAdvisor(st)
	srv := New(service.New(adv))
	mux := srv.Mux()
	gen := adv.Store.Generation()

	serve := func(rawQuery string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/advice?"+rawQuery, nil))
		return rec
	}

	for _, q := range []string{
		"app=lammps",                // hot
		"app=lammps&sku=" + bad.SKU, // cold: two fields
		"app=lammps&sort=cost",      // hot, cost order
	} {
		first := serve(q)
		if first.Code != http.StatusInternalServerError {
			t.Fatalf("%q: status %d, want 500\nbody: %s", q, first.Code, first.Body)
		}
		if ct := first.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%q: error content-type %q, want application/json", q, ct)
		}
		eb := decodeErrorBody(t, first.Body.String())
		if eb.Error.Status != http.StatusInternalServerError || !strings.Contains(eb.Error.Message, "encoding advice") {
			t.Fatalf("%q: error envelope %+v, want a 500 about encoding advice", q, eb.Error)
		}
		if _, ok := srv.cachedBody(gen, q); ok {
			t.Fatalf("%q: the body cache stored an error response", q)
		}
		again := serve(q)
		if again.Code != first.Code || again.Body.String() != first.Body.String() {
			t.Fatalf("%q: repeat answered %d %q, want the same 500 %q", q, again.Code, again.Body, first.Body)
		}
	}
	if hits := srv.bodyHits.Load(); hits != 0 {
		t.Fatalf("body cache answered %d requests, want 0", hits)
	}

	for _, q := range []string{
		"app=openfoam",                     // hot
		"app=openfoam&sku=Standard_HC44rs", // cold: two fields
		"app=lammps&minnodes=2",            // cold: the NaN run has 1 node
	} {
		rec := serve(q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d, want 200\nbody: %s", q, rec.Code, rec.Body)
		}
		vals, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		req, err := service.ParseAdviceRequest(vals)
		if err != nil {
			t.Fatal(err)
		}
		rows := pareto.Advice(adv.Store.SelectScan(req.Filter), req.Order)
		if rows == nil {
			rows = []dataset.Point{}
		}
		want, err := json.Marshal(service.AdviceResponse{
			Generation: gen, Sort: service.OrderName(req.Order), Count: len(rows), Rows: rows,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Body.String() != string(want) {
			t.Fatalf("%q: body diverges from the reference\n got: %s\nwant: %s", q, rec.Body, want)
		}
	}
}

package service

import (
	"net/http"

	"vccmin/internal/engine"
	"vccmin/internal/tasks"
)

// handleFleetPost accepts the JSON forms of both population kinds:
// {"sweep": {...}} runs a fleet sweep (the same task GET /v1/fleet
// binds), {"predict": {...}} a data-efficient Vcc-min prediction study.
func (s *Server) handleFleetPost(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Sweep   *tasks.FleetRequest   `json:"sweep,omitempty"`
		Predict *tasks.PredictRequest `json:"predict,omitempty"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	var (
		t   engine.Task
		err error
	)
	switch {
	case body.Sweep != nil && body.Predict != nil:
		writeErr(w, http.StatusBadRequest, "body must contain exactly one of sweep or predict, got both")
		return
	case body.Sweep != nil:
		t, err = tasks.NewFleetTask(*body.Sweep)
	case body.Predict != nil:
		t, err = tasks.NewPredictTask(*body.Predict)
	default:
		writeErr(w, http.StatusBadRequest, "body must contain one of sweep or predict")
		return
	}
	if err = s.admit(t, err); err != nil {
		writeErr(w, http.StatusBadRequest, "%s", err)
		return
	}
	s.runTask(w, r, t, engine.TierInteractive)
}

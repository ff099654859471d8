//go:build !race

package faultmesh_test

// campaignClients is the chaos-campaign client count without the race
// detector: the full acceptance-scale load.
const campaignClients = 200

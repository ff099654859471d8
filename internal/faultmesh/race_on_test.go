//go:build race

package faultmesh_test

// campaignClients is the chaos-campaign client count under the race
// detector, scaled for its ~10x slowdown: the fault classes and invariants
// are identical, only the load is lighter.
const campaignClients = 60

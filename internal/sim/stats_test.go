package sim

import (
	"reflect"
	"testing"
)

// eventLayers restates, field by field, which Stats counters each layer's
// activity total sums. A counter added to a layer without updating this
// list fails TestEventsFold.
var eventLayers = []struct {
	layer  string
	fields []string
}{
	{"fault", []string{
		"RequestsUnheard", "RepliesDropped", "RepliesRejected", "Retransmissions",
		"IndexRetries", "ChurnDepartures", "ByzantineLies"}},
	{"resilience", []string{
		"DeadlineAborts", "BackoffSlots", "BreakerTrips", "BreakerShortCircuits",
		"BreakerRecoveries", "ChurnDepartures", "ChurnReturns", "WastedRetries"}},
	{"trust", []string{
		"AuditsRun", "AuditFailures", "ConflictsDetected", "PeersQuarantined", "AuditSlots"}},
	{"consistency", []string{
		"POIUpdates", "IRBroadcasts", "IRListens", "IRListenSlots", "IRListenRetries",
		"VRsReconciled", "VRsDemoted", "VRsDiscarded", "VRsExpired", "StaleVerdicts"}},
	{"channel", []string{
		"Degraded", "Unanswered", "ModeP2POnly", "ModeOnAirOnly", "ModeOwnCache",
		"ModeSwitchSlots", "BlackoutQueries", "BlackoutWaitSlots", "BlackoutRecoveries",
		"IRDeferred", "IRListenAborts", "FadeSuppressedStrikes", "BurstFrameLosses",
		"BurstTransitions", "StaleBoundMaxSec"}},
	{"continuous", []string{
		"Subscriptions", "SafeRegionHits", "Reverifies", "ReverifyExits", "ReverifyTaints",
		"ReverifyUnverified", "ReverifyNaive", "ContDegraded", "ContSlots"}},
	{"overload", []string{
		"CrowdQueries", "BusyReplies", "QueueDrops", "Shed", "AdmissionDenied",
		"GovernorSheds", "GovernorEngagedTicks", "RetryBudgetExhausted", "Coalesced"}},
}

// TestEventsFold pins each layer's activity total to its field list: with
// every exported Stats field set to a distinct value the total is the sum
// of the listed fields, and with one field set alone the total moves
// exactly when that field is listed.
func TestEventsFold(t *testing.T) {
	set := func(s *Stats, i int, v int64) {
		f := reflect.ValueOf(s).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(v)
		case reflect.Float64:
			f.SetFloat(float64(v))
		default:
			t.Fatalf("Stats.%s: unhandled kind %v", reflect.TypeOf(*s).Field(i).Name, f.Kind())
		}
	}
	typ := reflect.TypeOf(Stats{})
	var all Stats
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			set(&all, i, int64(1000+i))
		}
	}
	for _, l := range eventLayers {
		listed := map[string]bool{}
		var want int64
		for _, name := range l.fields {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("%s: no Stats field %s", l.layer, name)
			}
			listed[name] = true
			want += int64(1000 + f.Index[0])
		}
		if got := all.Events(l.layer); got != want {
			t.Errorf("%s: total %d with every field distinct, want %d", l.layer, got, want)
		}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if !typ.Field(i).IsExported() {
				continue
			}
			var one Stats
			set(&one, i, 7)
			want := int64(0)
			if listed[name] {
				want = 7
			}
			if got := one.Events(l.layer); got != want {
				t.Errorf("%s: total %d with only %s set, want %d", l.layer, got, name, want)
			}
		}
	}
}

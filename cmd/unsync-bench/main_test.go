package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSelectSteps(t *testing.T) {
	all := map[string]bool{}
	for _, s := range steps {
		if s != "replicated" {
			all[s] = true
		}
	}
	allReplicated := map[string]bool{"replicated": true}
	for s := range all {
		allReplicated[s] = true
	}
	for _, tc := range []struct {
		list    string
		want    map[string]bool
		wantErr string
	}{
		{list: "fig4", want: map[string]bool{"fig4": true}},
		{list: " Fig4 , table1,", want: map[string]bool{"fig4": true, "table1": true}},
		{list: "events", want: map[string]bool{"events": true}},
		{list: "all", want: all},
		{list: "replicated", want: map[string]bool{"replicated": true}},
		{list: "all,replicated", want: allReplicated},
		{list: "fig4,fgi5", wantErr: `"fgi5"`},
		{list: "fig4,campaign", wantErr: `"campaign"`},
		{list: "", wantErr: "nothing selected"},
		{list: " , ", wantErr: "nothing selected"},
	} {
		got, err := selectSteps(tc.list)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("selectSteps(%q) error = %v, want one naming %s", tc.list, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectSteps(%q): %v", tc.list, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("selectSteps(%q) = %v, want %v", tc.list, got, tc.want)
		}
	}
}

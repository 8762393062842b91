package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRenderSection: a section rendered by key prints the tables its
// campaign run prints, and an unknown key is an error.
func TestRenderSection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplesPerClass = 20
	cfg.Workers = 2
	var campaign, section bytes.Buffer
	if err := RunCampaign(cfg, CampaignSpec{Fig4: true}, &campaign, ""); err != nil {
		t.Fatal(err)
	}
	if err := RenderSection(cfg, "fig4", &section); err != nil {
		t.Fatal(err)
	}
	// The campaign frames the tables with a header line and a timing line.
	lines := strings.SplitAfter(campaign.String(), "\n")
	if body := strings.Join(lines[1:len(lines)-3], ""); body != section.String() || body == "" {
		t.Errorf("RenderSection(fig4) printed\n%s\nwant the campaign's\n%s", section.String(), body)
	}
	if err := RenderSection(cfg, "defense", &section); err == nil {
		t.Error("RenderSection accepted a key the campaign has no section for")
	}
}

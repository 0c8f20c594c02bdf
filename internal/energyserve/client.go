package energyserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"davide/internal/accounting"
)

// QuotaError reports a 429 from the service, carrying the server's
// Retry-After hint in seconds.
type QuotaError struct {
	RetryAfter float64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("energyserve: quota exceeded, retry after %gs", e.RetryAfter)
}

// Client is the typed HTTP client of the service — what egmon uses in
// remote mode instead of its in-process queries.
type Client struct {
	base   string
	tenant string
	hc     *http.Client
}

// NewClient targets a service at base (host:port or full URL),
// identifying as tenant ("" falls back to the server's anon bucket).
func NewClient(base, tenant string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:   strings.TrimRight(base, "/"),
		tenant: tenant,
		hc:     &http.Client{Timeout: 10 * time.Second},
	}
}

// get fetches path and decodes JSON into out (or captures raw text when
// out is *string).
func (c *Client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		ra, _ := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
		return &QuotaError{RetryAfter: ra}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("energyserve: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if sp, ok := out.(*string); ok {
		*sp = string(body)
		return nil
	}
	return json.Unmarshal(body, out)
}

// Users returns the per-user energy summaries, sorted by energy.
func (c *Client) Users() ([]accounting.UserSummary, error) {
	var out []accounting.UserSummary
	err := c.get("/v1/users", &out)
	return out, err
}

// User returns one user's summary and per-job records.
func (c *Client) User(id int) (UserReport, error) {
	var out UserReport
	err := c.get("/v1/users/"+strconv.Itoa(id), &out)
	return out, err
}

// Job returns one job's accounting record.
func (c *Client) Job(id int) (accounting.Record, error) {
	var out accounting.Record
	err := c.get("/v1/jobs/"+strconv.Itoa(id), &out)
	return out, err
}

// JobPhases returns the measured phase view of one scheduled job.
func (c *Client) JobPhases(id int) ([]accounting.Phase, error) {
	var out []accounting.Phase
	err := c.get("/v1/jobs/"+strconv.Itoa(id)+"/phases", &out)
	return out, err
}

// Window returns one node's power over [t0, t1] at resolution res
// (0 = raw samples).
func (c *Client) Window(node int, t0, t1, res float64) (WindowReport, error) {
	path := fmt.Sprintf("/v1/nodes/%d/window?t0=%s&t1=%s&res=%s",
		node,
		strconv.FormatFloat(t0, 'g', -1, 64),
		strconv.FormatFloat(t1, 'g', -1, 64),
		strconv.FormatFloat(res, 'g', -1, 64))
	var out WindowReport
	err := c.get(path, &out)
	return out, err
}

// RackPower returns one rack's instantaneous power from latest
// telemetry.
func (c *Client) RackPower(rack int) (RackPower, error) {
	var out RackPower
	err := c.get("/v1/racks/"+strconv.Itoa(rack)+"/power", &out)
	return out, err
}

// Package master implements the Tebis master: it bootstraps the region
// map, assigns primary/backup roles to region servers, watches server
// liveness through the coordination service's ephemeral nodes, and
// orchestrates recovery — backup replacement, primary promotion, and its
// own re-election (§3.1, §3.5).
package master

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/storage"
	"tebis/internal/zklite"
)

// Zookeeper paths used by the cluster.
const (
	// ServersPath holds one ephemeral child per live region server.
	ServersPath = "/tebis/servers"
	// RegionMapPath stores the encoded region map.
	RegionMapPath = "/tebis/regionmap"
	// ElectionPath hosts the master election.
	ElectionPath = "/tebis/master"
)

// Host is the command surface of a region server the master drives
// (satisfied by *server.Server).
type Host interface {
	Name() string
	OpenPrimary(r region.Region, mode replica.Mode) (*replica.Primary, error)
	OpenBackup(r region.Region, mode replica.Mode) (*replica.Backup, error)
	PromoteToPrimary(id region.ID) (*replica.Primary, error)
	DemoteToBackup(id region.ID, oldToNew map[storage.SegmentID]storage.SegmentID) (*replica.Backup, error)
	Backup(id region.ID) (*replica.Backup, bool)
	Primary(id region.ID) (*replica.Primary, bool)
	DropRegion(id region.ID) error

	// Reconfiguration surface: freeze windows, logical splits and merges
	// of hosted regions, and the load/split-point signals the rebalancer
	// reads.
	Freeze(id region.ID) error
	Unfreeze(r region.Region, l region.Lease) error
	Frozen(id region.ID) bool
	SplitHosted(left, right region.Region) error
	MergeHosted(merged region.Region, rightID region.ID) error
	AliasChildren(owner region.ID) []region.ID
	RegionLoads() map[region.ID]region.Load
	SplitKey(id region.ID) ([]byte, error)

	// Health surface: Ready mirrors the node's /readyz check (nil when
	// the node would serve), Lag exposes the per-backup replication-lag
	// streams of the primaries the node hosts.
	Ready() error
	Lag() *metrics.LagSet
}

// Errors reported by the master.
var (
	ErrNotLeader  = errors.New("master: not the elected leader")
	ErrNoHost     = errors.New("master: unknown host")
	ErrNoCapacity = errors.New("master: no live server can take the region")
)

// Master orchestrates one Tebis cluster.
type Master struct {
	name   string
	sess   *zklite.Session
	elec   *zklite.Election
	mode   replica.Mode
	events *obs.EventLog

	// ReconfigHook, when non-nil, runs at each durable phase point of a
	// reconfiguration (see beginPhase/hookPoint). Returning an error
	// abandons the operation exactly where a master crash would — state is
	// left as-is for a successor's TakeOver to complete or abort. Tests
	// use it to kill the master mid-handoff; set it before driving any
	// reconfiguration.
	ReconfigHook func(op, phase string) error

	// roles is held across every change of region roles: a whole
	// reconfiguration, a failure recovery, a backup replacement. Each
	// freezes and thaws regions; serialized, a refill's thaw never lands
	// inside a reconfiguration's freeze window.
	roles sync.Mutex

	mu            sync.Mutex
	hosts         map[string]Host
	live          map[string]bool
	rmap          *region.Map
	replicas      int
	reconfiguring bool
	lastLoads     map[region.ID]uint64
	shipBytes     map[region.ID]int64
	splits        uint64
	merges        uint64
	migrations    uint64
	reconfAborts  uint64

	stop chan struct{}
	done chan struct{}
}

// Config configures a master candidate.
type Config struct {
	// Name identifies this candidate.
	Name string
	// Session is the candidate's coordination-service session.
	Session *zklite.Session
	// Mode is the cluster-wide replication mode.
	Mode replica.Mode
	// Events, when non-nil, journals the master's control-plane
	// transitions (failovers, backup replacement, reconfiguration
	// phases). Typically the cluster-shared journal.
	Events *obs.EventLog
}

// New enrolls a master candidate in the election. Call Bootstrap (on
// the initial leader) or TakeOver (on a successor) once IsLeader.
func New(cfg Config) (*Master, error) {
	elec, err := zklite.NewElection(cfg.Session, ElectionPath, cfg.Name)
	if err != nil {
		return nil, err
	}
	m := &Master{
		name:      cfg.Name,
		sess:      cfg.Session,
		elec:      elec,
		mode:      cfg.Mode,
		events:    cfg.Events,
		hosts:     map[string]Host{},
		live:      map[string]bool{},
		lastLoads: map[region.ID]uint64{},
		shipBytes: map[region.ID]int64{},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	return m, nil
}

// Name returns the candidate's name.
func (m *Master) Name() string { return m.name }

// IsLeader reports whether this candidate currently leads; when not, the
// returned channel fires when leadership may have changed.
func (m *Master) IsLeader() (bool, <-chan zklite.Event, error) {
	return m.elec.IsLeader()
}

// RegisterHost makes a region server drivable by this master. The
// caller also creates the server's ephemeral liveness node.
func (m *Master) RegisterHost(h Host) {
	m.mu.Lock()
	m.hosts[h.Name()] = h
	m.live[h.Name()] = true
	m.mu.Unlock()
}

// Map returns the master's current region map.
func (m *Master) Map() *region.Map {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rmap.Clone()
}

// publishMap stores the region map in the coordination service so
// clients and a successor master can read it.
func (m *Master) publishMap() error {
	data := m.rmap.Encode()
	if err := m.sess.CreateAll(RegionMapPath); err != nil {
		return err
	}
	return m.sess.Set(RegionMapPath, data)
}

// Bootstrap opens every region of rmap on its assigned servers, attaches
// backups to primaries, and publishes the map. Leader only.
func (m *Master) Bootstrap(rmap *region.Map) error {
	if lead, _, err := m.elec.IsLeader(); err != nil || !lead {
		if err != nil {
			return err
		}
		return ErrNotLeader
	}
	if err := rmap.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	m.rmap = rmap.Clone()
	m.replicas = maxBackups(rmap)
	m.mu.Unlock()

	for _, r := range rmap.Regions {
		if err := m.openRegion(r); err != nil {
			return err
		}
	}
	return m.publishMap()
}

// openRegion issues the open-region commands for one region: primary
// first, then each backup, then attach.
func (m *Master) openRegion(r region.Region) error {
	m.mu.Lock()
	ph, ok := m.hosts[r.Primary]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoHost, r.Primary)
	}
	mode := m.mode
	if len(r.Backups) == 0 {
		mode = replica.NoReplication
	}
	p, err := ph.OpenPrimary(r, mode)
	if err != nil {
		return err
	}
	for _, bname := range r.Backups {
		m.mu.Lock()
		bh, ok := m.hosts[bname]
		m.mu.Unlock()
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoHost, bname)
		}
		b, err := bh.OpenBackup(r, mode)
		if err != nil {
			return err
		}
		replica.Attach(p, b)
	}
	return nil
}

// TakeOver loads the published region map (a successor master resumes
// from coordination-service state after winning the election) and then
// finishes or rolls back any reconfiguration the previous master left
// in flight.
func (m *Master) TakeOver() error {
	if lead, _, err := m.elec.IsLeader(); err != nil || !lead {
		if err != nil {
			return err
		}
		return ErrNotLeader
	}
	data, err := m.sess.Get(RegionMapPath)
	if err != nil {
		return err
	}
	rmap, err := region.Decode(data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.rmap = rmap
	m.replicas = maxBackups(rmap)
	m.mu.Unlock()
	return m.resumeReconfig()
}

// maxBackups infers the cluster replication factor from a region map.
func maxBackups(rmap *region.Map) int {
	want := 0
	for _, r := range rmap.Regions {
		if len(r.Backups) > want {
			want = len(r.Backups)
		}
	}
	return want
}

// Run watches server liveness and handles failures until Stop. Leader
// only; it returns when the stop channel closes or the session dies.
func (m *Master) Run() error {
	defer close(m.done)
	for {
		kids, watch, err := m.sess.Children(ServersPath, true)
		if err != nil {
			return err
		}
		if err := m.reconcile(kids); err != nil {
			return err
		}
		select {
		case <-m.stop:
			return nil
		case <-watch:
		}
	}
}

// Stop terminates Run.
func (m *Master) Stop() {
	close(m.stop)
	<-m.done
}

// reconcile compares the live server set against the expectation and
// handles every disappeared server.
func (m *Master) reconcile(liveNow []string) error {
	nowSet := map[string]bool{}
	for _, s := range liveNow {
		nowSet[s] = true
	}
	m.mu.Lock()
	var failed []string
	for s, wasLive := range m.live {
		if wasLive && !nowSet[s] {
			failed = append(failed, s)
		}
	}
	sort.Strings(failed)
	for _, s := range failed {
		m.live[s] = false
	}
	m.mu.Unlock()
	for _, s := range failed {
		if err := m.HandleServerFailure(s); err != nil {
			return err
		}
	}
	return nil
}

// HandleServerFailure recovers every region the failed server
// participated in: primary regions are failed over to a backup, backup
// slots are refilled from live servers with a full state transfer
// (§3.5). A single node failure affects many regions; each is handled
// in turn. A reconfiguration in flight finishes (or rolls back) first.
func (m *Master) HandleServerFailure(name string) error {
	m.roles.Lock()
	defer m.roles.Unlock()
	m.mu.Lock()
	m.live[name] = false
	rmap := m.rmap.Clone()
	m.mu.Unlock()

	for _, r := range rmap.Regions {
		if r.HasParent {
			// Split children have no replica state of their own: they serve
			// from the parent's engine and mirror its backup list. The
			// engine owner's failover below carries them; their alias
			// entries are recreated on the new primary afterwards.
			continue
		}
		if r.Primary == name {
			if err := m.failPrimary(r); err != nil {
				return err
			}
			continue
		}
		for _, b := range r.Backups {
			if b == name {
				if err := m.failBackup(r, name); err != nil {
					return err
				}
				break
			}
		}
	}
	if err := m.reparentAliases(); err != nil {
		return err
	}
	return m.publishMap()
}

// reparentAliases realigns every split child with its engine owner's
// placement: after a failover moved the owner's primary, the child's
// alias entry is recreated on the new primary (the failed host took the
// old entries down with it) and its map row re-points there.
func (m *Master) reparentAliases() error {
	m.mu.Lock()
	snap := m.rmap.Clone()
	m.mu.Unlock()
	for _, r := range snap.Regions {
		if !r.HasParent {
			continue
		}
		root, err := rootOwner(snap, r)
		if err != nil {
			return err
		}
		if r.Primary == root.Primary {
			continue
		}
		m.mu.Lock()
		host := m.hosts[root.Primary]
		m.mu.Unlock()
		if host == nil {
			return fmt.Errorf("%w: %s", ErrNoHost, root.Primary)
		}
		if err := host.SplitHosted(root, r); err != nil {
			return err
		}
		nr := r.Clone()
		nr.Primary = root.Primary
		nr.Backups = append([]string(nil), root.Backups...)
		m.mu.Lock()
		err = m.rmap.SetRegion(nr)
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// rootOwner follows a split child's parent chain to the region that
// actually owns the shared engine.
func rootOwner(rm *region.Map, r region.Region) (region.Region, error) {
	for r.HasParent {
		p, err := rm.ByID(r.Parent)
		if err != nil {
			return region.Region{}, err
		}
		r = p
	}
	return r, nil
}

// failPrimary promotes the first live backup of r to primary, rewires
// the remaining backups to it, and refills the vacated backup slot.
func (m *Master) failPrimary(r region.Region) error {
	live := m.liveBackups(r, "")
	if len(live) == 0 {
		return fmt.Errorf("%w: region %d lost its primary and has no live backup", ErrNoCapacity, r.ID)
	}
	promoteTo := live[0]
	if _, _, err := m.promote(r.ID, promoteTo, live[1:]); err != nil {
		return err
	}

	// Update the map: new primary, old primary no longer a backup.
	m.mu.Lock()
	if err := m.rmap.SetPrimary(r.ID, promoteTo); err != nil {
		m.mu.Unlock()
		return err
	}
	updated, _ := m.rmap.ByID(r.ID)
	host := m.hosts[promoteTo]
	m.mu.Unlock()

	// The promoted backup's hosted descriptor predates any splits of the
	// region (backups don't track epoch bumps); install the current one
	// with a serving lease.
	if err := host.Unfreeze(updated, region.Lease{
		Region: r.ID, Epoch: updated.Epoch, Holder: promoteTo,
	}); err != nil {
		return err
	}
	m.events.Record(obs.Event{
		Type: obs.EvPrimaryFailed, Node: m.name, Level: obs.LevelWarn,
		Msg: "primary failed, backup promoted",
		Fields: map[string]string{
			"region":   fmt.Sprint(r.ID),
			"failed":   r.Primary,
			"promoted": promoteTo,
		},
	})

	// The failed server also vacated a replica slot: refill it.
	return m.refillBackup(updated, r.Primary)
}

// liveBackups lists r's live backups other than skip, in map order.
func (m *Master) liveBackups(r region.Region, skip string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, b := range r.Backups {
		if b != skip && m.live[b] {
			out = append(out, b)
		}
	}
	return out
}

// promote is the promotion step of failover and migration alike: it
// snapshots the log map of to's backup of region id, promotes that
// backup, then retargets each survivor's log map through the snapshot
// (§3.2) and attaches the survivor to the new primary. It returns the
// new primary and the snapshot, through which a demoted old primary
// re-keys its own log map.
func (m *Master) promote(id region.ID, to string, survivors []string) (*replica.Primary, map[storage.SegmentID]storage.SegmentID, error) {
	h := m.host(to)
	if h == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoHost, to)
	}
	nb, ok := h.Backup(id)
	if !ok {
		return nil, nil, fmt.Errorf("master: %s does not host backup of region %d", to, id)
	}
	oldToNew := nb.LogMap().Snapshot()
	p, err := h.PromoteToPrimary(id)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range survivors {
		ob, ok := m.host(name).Backup(id)
		if !ok {
			return nil, nil, fmt.Errorf("master: %s lost backup of region %d", name, id)
		}
		if err := ob.LogMap().Retarget(oldToNew); err != nil {
			return nil, nil, err
		}
		replica.Attach(p, ob)
	}
	return p, oldToNew, nil
}

// failBackup replaces a failed backup of r with a live server not
// already in the region and transfers the region data to it.
func (m *Master) failBackup(r region.Region, failed string) error {
	m.mu.Lock()
	if err := m.rmap.RemoveBackup(r.ID, failed); err != nil {
		m.mu.Unlock()
		return err
	}
	updated, _ := m.rmap.ByID(r.ID)
	m.mu.Unlock()
	return m.refillBackup(updated, failed)
}

// ReplaceBackup handles a backup the region's primary evicted for
// unresponsiveness (Primary.Degraded/Evictions): unlike a crash, the
// evicted server may still be live with its coordination-service node
// intact, so liveness watching never fires. The master drops the stale
// region state on the evicted host, removes it from the region, and
// refills the slot from a server outside the region — driving Sync to
// restore the replication factor (§3.5).
func (m *Master) ReplaceBackup(id region.ID, failed string) error {
	m.roles.Lock()
	defer m.roles.Unlock()
	m.mu.Lock()
	r, err := m.rmap.ByID(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	fh := m.hosts[failed]
	m.mu.Unlock()
	if !slices.Contains(r.Backups, failed) {
		return fmt.Errorf("master: %s is not a backup of region %d", failed, id)
	}
	// A live evicted host still holds the region slot; drop it so the
	// region can be reassigned (possibly back to this host later).
	if fh != nil {
		if _, ok := fh.Backup(id); ok {
			if err := fh.DropRegion(id); err != nil {
				return err
			}
		}
	}
	if err := m.failBackup(r, failed); err != nil {
		return err
	}
	return m.publishMap()
}

// refillBackup tops the region's replica set back up to the cluster's
// replication factor using live servers outside the region, never
// picking avoid (the server just declared failed — it may still look
// live when the primary evicted it for unresponsiveness).
func (m *Master) refillBackup(r region.Region, avoid string) error {
	if m.mode == replica.NoReplication {
		return nil
	}
	m.mu.Lock()
	want := m.replicas
	in := map[string]bool{r.Primary: true}
	for _, b := range r.Backups {
		in[b] = true
	}
	var candidates []string
	for name, alive := range m.live {
		if alive && !in[name] && name != avoid {
			candidates = append(candidates, name)
		}
	}
	sort.Strings(candidates)
	ph := m.hosts[r.Primary]
	m.mu.Unlock()

	for len(r.Backups) < want && len(candidates) > 0 {
		cand := candidates[0]
		candidates = candidates[1:]
		p, ok := ph.Primary(r.ID)
		if !ok {
			return fmt.Errorf("master: %s lost primary of region %d", r.Primary, r.ID)
		}
		// Sync needs the region's writes quiesced: freeze the engine
		// owner, which also parks its split children's ops, across the
		// seed, and thaw it on every path out.
		err := ph.Freeze(r.ID)
		if err == nil {
			_, _, err = m.seed(p, r, m.host(cand))
		}
		if err == nil {
			m.mu.Lock()
			if err = m.rmap.AddBackup(r.ID, cand); err == nil {
				r, _ = m.rmap.ByID(r.ID)
			}
			m.mu.Unlock()
		}
		if uerr := ph.Unfreeze(r, region.Lease{
			Region: r.ID, Epoch: r.Epoch, Holder: r.Primary,
		}); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		m.events.Record(obs.Event{
			Type: obs.EvBackupReplaced, Node: m.name,
			Msg: "replica slot refilled, state transfer complete",
			Fields: map[string]string{
				"region":   fmt.Sprint(r.ID),
				"backup":   cand,
				"replaced": avoid,
			},
		})
	}
	return nil
}

// seed is the state-transfer step of refill and migration alike
// (§3.5): it opens r as a backup on dst, drains p's compactions,
// attaches the new backup and Syncs p's log and index to it. It returns
// the backup and the bytes shipped. The caller must have frozen the
// engine owner, since Sync requires writes quiesced.
func (m *Master) seed(p *replica.Primary, r region.Region, dst Host) (*replica.Backup, int64, error) {
	b, err := dst.OpenBackup(r, m.mode)
	if err != nil {
		return nil, 0, err
	}
	// Drain compactions before attaching: a job already running would
	// ship segments for a start the new backup never saw, and its
	// install would miss Sync's snapshot.
	if err := p.DB().WaitIdle(); err != nil {
		return nil, 0, err
	}
	replica.Attach(p, b)
	n, err := p.Sync(b)
	return b, n, err
}

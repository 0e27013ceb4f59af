package workload

import (
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
	"repro/internal/supervise"
)

// rigSpec describes the stack a fault, degradation or predict campaign
// runs on.
type rigSpec struct {
	seed     uint64
	numCPUs  int
	obsLevel obs.Level
	// bodies maps bincodes to functional routines.
	bodies map[string]core.BodyFactory
	// descs are deployed in order, before the replica pairs.
	descs    []string
	replicas int
	campaign fault.Campaign
	// guard and supervise start a contract guard and a restart
	// supervisor with these options; nil runs without one.
	guard     *contract.Options
	supervise *supervise.Options
}

// rig is one assembled campaign stack.
type rig struct {
	k     *rtos.Kernel
	d     *core.DRCR
	inj   *fault.Injector
	guard *contract.Guard
	sup   *supervise.Supervisor
}

// newRig builds the framework, kernel and observability plane, then the
// DRCR; registers the bodies; deploys the descriptors, then the replica
// pairs; installs the fault campaign; and starts the guard and the
// supervisor when asked. On error it tears down what it built.
func newRig(s rigSpec) (_ *rig, err error) {
	fw := osgi.NewFramework()
	r := &rig{k: rtos.NewKernel(rtos.Config{Seed: s.seed, NumCPUs: s.numCPUs})}
	r.d, err = core.New(fw, r.k, core.Options{
		Obs: obs.NewPlane(obs.Options{Level: s.obsLevel}),
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for bincode, f := range s.bodies {
		if err := r.d.RegisterBody(bincode, f); err != nil {
			return nil, err
		}
	}
	for _, src := range s.descs {
		desc, err := descriptor.Parse(src)
		if err != nil {
			return nil, err
		}
		if err := r.d.Deploy(desc); err != nil {
			return nil, err
		}
	}
	if err := deployReplicas(r.d, s.replicas, s.numCPUs); err != nil {
		return nil, err
	}
	inj, err := fault.New(r.d, fw)
	if err != nil {
		return nil, err
	}
	r.inj = inj
	if err := inj.Install(s.campaign); err != nil {
		return nil, err
	}
	if s.guard != nil {
		guard, err := contract.New(r.d, *s.guard)
		if err != nil {
			return nil, err
		}
		if err := guard.Start(); err != nil {
			return nil, err
		}
		r.guard = guard
	}
	if s.supervise != nil {
		sup, err := supervise.New(r.d, *s.supervise)
		if err != nil {
			return nil, err
		}
		sup.Start()
		r.sup = sup
	}
	return r, nil
}

// close tears the rig down in the reverse of the order it was built.
// Campaigns read their digests before calling it, so teardown spans
// never enter a pinned digest.
func (r *rig) close() {
	if r.sup != nil {
		r.sup.Stop()
	}
	if r.guard != nil {
		r.guard.Stop()
	}
	if r.inj != nil {
		r.inj.Close()
	}
	r.d.Close()
}

// calcBody is the §4.2 calculation job: it publishes each job's dispatch
// latency on LatencySHM.
func calcBody(*descriptor.Component) rtos.Body {
	return func(j *rtos.JobContext) {
		if shm, err := j.Kernel.IPC().SHM(LatencySHM); err == nil {
			_ = shm.Set(0, int64(j.Now.Sub(j.Nominal)))
		}
	}
}

// displayBody is the §4.2 display job: it reads LatencySHM and, when
// record is non-nil, hands it the job's own dispatch latency.
func displayBody(record func(int64)) core.BodyFactory {
	return func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(LatencySHM); err == nil {
				_, _ = shm.Get(0)
			}
			if record != nil {
				record(int64(j.Now.Sub(j.Nominal)))
			}
		}
	}
}

// noopBody is a job that does no functional work.
func noopBody(*descriptor.Component) rtos.Body { return func(*rtos.JobContext) {} }

//! Ends a run at an iteration boundary through the per-trial stop route.

use cluster_sim::{ClusterSession, ClusterSpec};
use dist_exec::backend::EnvFactory;
use dist_exec::spec::ExecSpec;
use dist_exec::{train, Control, ExecReport};

/// Run `spec`, stopping at the end of iteration `iterations`.
pub fn run_stopped_after(
    spec: &ExecSpec,
    factory: &dyn EnvFactory,
    iterations: u64,
) -> Result<ExecReport, String> {
    let mut session = ClusterSession::new(ClusterSpec::paper_testbed(spec.deployment.nodes));
    let mut report = train(spec, factory, &mut session, |iteration, _| {
        if iteration >= iterations {
            Control::Stop
        } else {
            Control::Continue
        }
    })?;
    report.usage = session.finish();
    Ok(report)
}

//! Correctness of every timed operation, judged outside the timed region
//! against references built during set-up.

use navp_kv::KvProduct;
use navp_matrix::Matrix;
use navp_serve::{JobInfo, JobOutcome, JobState, RejectReason};

/// A GEMM product is correct when it exists and lies within `1e-9` of
/// the reference everywhere — the runner's own rule — and holds no
/// `NaN`, which that rule alone would let through.
pub fn gemm_ok(got: Option<&Matrix>, want: &Matrix) -> bool {
    got.is_some_and(|g| want.max_abs_diff(g) < 1e-9 && g.as_slice().iter().all(|v| v.is_finite()))
}

/// A kv product is correct when it equals the sequential reference.
pub fn kv_ok(got: &KvProduct, want: &KvProduct) -> bool {
    got == want
}

/// How a service job ended, as the client saw it.
// The payloads are read through `Debug`, in failure reports.
#[allow(dead_code)]
#[derive(Debug)]
pub enum JobEnd {
    /// Admission refused the submission.
    Rejected(RejectReason),
    /// The client could not submit or follow the job.
    Error(String),
    /// The job reached a terminal state.
    Terminal(JobInfo, Option<JobOutcome>),
}

/// A job is correct when it finished `Done`, the service verified it,
/// and its product checksum is the locally computed one. A rejected,
/// failed, timed-out or unfollowable job is a failure.
pub fn job_ok(end: &JobEnd, want_checksum: u64) -> bool {
    match end {
        JobEnd::Terminal(info, Some(out)) => {
            info.state == JobState::Done && out.verified && out.checksum == want_checksum
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_kv::KvConfig;

    fn info(state: JobState) -> JobInfo {
        JobInfo {
            id: 1,
            state,
            priority: 0,
            queued_ms: 0,
            started_ms: 1,
            finished_ms: 2,
            detail: String::new(),
        }
    }

    #[test]
    fn a_corrupted_gemm_product_fails() {
        let want = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut got = want.clone();
        assert!(gemm_ok(Some(&got), &want));
        got.as_mut_slice()[5] += 1e-6;
        assert!(!gemm_ok(Some(&got), &want));
        got.as_mut_slice()[5] = f64::NAN;
        assert!(!gemm_ok(Some(&got), &want));
        assert!(!gemm_ok(None, &want));
        assert!(!gemm_ok(Some(&Matrix::zeros(2, 2)), &want));
    }

    #[test]
    fn a_corrupted_kv_product_fails() {
        let want = navp_kv::expected(&KvConfig::new(64, 4));
        let mut got = want.clone();
        assert!(kv_ok(&got, &want));
        got.store_digest ^= 1;
        assert!(!kv_ok(&got, &want));
    }

    #[test]
    fn rejected_and_wrong_jobs_fail() {
        let good = JobOutcome {
            checksum: 42,
            verified: true,
            wall_ms: 3,
        };
        assert!(job_ok(
            &JobEnd::Terminal(info(JobState::Done), Some(good.clone())),
            42
        ));
        assert!(!job_ok(
            &JobEnd::Terminal(info(JobState::Done), Some(good.clone())),
            43
        ));
        let unverified = JobOutcome {
            verified: false,
            ..good.clone()
        };
        assert!(!job_ok(
            &JobEnd::Terminal(info(JobState::Done), Some(unverified)),
            42
        ));
        assert!(!job_ok(
            &JobEnd::Terminal(info(JobState::TimedOut), Some(good)),
            42
        ));
        assert!(!job_ok(&JobEnd::Terminal(info(JobState::Failed), None), 42));
        assert!(!job_ok(
            &JobEnd::Rejected(RejectReason::QueueFull { cap: 1 }),
            42
        ));
        assert!(!job_ok(&JobEnd::Error("refused".into()), 42));
    }
}

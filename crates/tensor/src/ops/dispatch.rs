//! Runtime micro-kernel dispatch.
//!
//! The GEMM micro-kernel exists in three arms that compute **bit-identical**
//! results (one fused multiply-add per step, same `k` order — the numerical
//! contract in [`super`]):
//!
//! * **Scalar** — the portable Rust loop over `f32::mul_add`, always
//!   available.  Where CPUID reports FMA3 it runs a copy of the same loop
//!   compiled under `target_feature(enable = "fma")`, so a forced-scalar
//!   run issues `vfmadd` instead of calling libm `fmaf` per element; without
//!   hardware FMA the libm call is slow but returns the same bits.
//! * **Avx2** — explicit 256-bit `std::arch` kernel (`_mm256_fmadd_ps`):
//!   the full `MR × NR` accumulator tile lives in twelve `ymm` registers.
//!   Detected only when CPUID reports `avx2` **and** `fma`.
//! * **Avx512** — explicit 512-bit kernel (`_mm512_fmadd_ps`): one `zmm`
//!   register holds a whole `NR`-column accumulator row, and two adjacent
//!   B panels run per call so twelve independent accumulators cover the
//!   FMA latency of both ports.
//!
//! A fused multiply-add is one correctly rounded IEEE-754 operation on
//! every implementation — x86 FMA3, AArch64 `fmla`, libm `fmaf` — so the
//! arms agree bitwise with each other and across machines, which is what
//! lets every distributed-equivalence suite in this workspace run
//! unchanged on any mix of devices.
//!
//! The FC GEMV kernels ([`super::gemv`]) are a second kernel family on the
//! same arms and the same contract: 4 `zmm` / 8 `ymm` accumulators or a
//! scalar lane loop over a 64-row panel, f32 under [`KernelArch`], int8
//! under [`QKernelArch`].
//!
//! Selection is per *process*: detected once from CPUID, overridable for
//! tests and benches via [`set_kernel_override`] or the environment
//! (`DISTREDGE_FORCE_SCALAR=1`, or `DISTREDGE_KERNEL=scalar|avx2|avx512`).
//! An override never selects an arm the hardware cannot run: requests are
//! clamped to the detected capability.  An *unrecognised* kernel name in
//! the environment panics with the valid names — a typo in CI must not
//! silently un-pin the kernel under test.
//!
//! The int8 quantized GEMM ([`super::qgemm`]) has its own parallel arm
//! family ([`QKernelArch`]): scalar / AVX2 / AVX-512 VNNI (`vpdpbusd`).
//! Integer accumulation is order-independent, so all int8 arms are
//! bit-exact by construction; the same clamp-to-capability rules apply via
//! `DISTREDGE_QKERNEL=scalar|avx2|vnni` and [`set_qkernel_override`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One micro-kernel implementation arm, ordered by capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelArch {
    /// Portable Rust loop — always available, the dispatch floor.
    Scalar,
    /// 256-bit `std::arch` kernel (x86-64 with AVX2 and FMA3).
    Avx2,
    /// 512-bit `std::arch` kernel (x86-64 with AVX-512F).
    Avx512,
}

impl KernelArch {
    /// Short lowercase label (`"scalar"`, `"avx2"`, `"avx512"`) for benches
    /// and logs.
    pub fn label(self) -> &'static str {
        match self {
            KernelArch::Scalar => "scalar",
            KernelArch::Avx2 => "avx2",
            KernelArch::Avx512 => "avx512",
        }
    }
}

/// What the hardware supports, detected once per process.
fn detected() -> KernelArch {
    static DETECTED: OnceLock<KernelArch> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // The 256-bit arm needs both features, and an override can clamp
            // a 512-bit machine down to it, so the 512-bit arm requires them
            // too (every AVX-512 part has them).
            if std::arch::is_x86_feature_detected!("avx2") && hw_fma() {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return KernelArch::Avx512;
                }
                return KernelArch::Avx2;
            }
        }
        KernelArch::Scalar
    })
}

/// Whether the scalar arm may run its loop compiled under
/// `target_feature(enable = "fma")` — same bits as the plain copy (both are
/// `f32::mul_add`), hardware `vfmadd` instead of a libm call per element.
#[cfg(target_arch = "x86_64")]
pub(super) fn hw_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// The environment's standing request, read once per process.  An
/// unrecognised `DISTREDGE_KERNEL` value panics: a typo must not silently
/// fall back to auto-detection and un-pin the kernel a CI step meant to
/// test.
fn env_request() -> Option<KernelArch> {
    static ENV: OnceLock<Option<KernelArch>> = OnceLock::new();
    *ENV.get_or_init(|| {
        if let Ok(v) = std::env::var("DISTREDGE_KERNEL") {
            match v.to_ascii_lowercase().as_str() {
                "scalar" => return Some(KernelArch::Scalar),
                "avx2" => return Some(KernelArch::Avx2),
                "avx512" => return Some(KernelArch::Avx512),
                other => panic!(
                    "DISTREDGE_KERNEL={other:?} is not a kernel arm; \
                     valid names: scalar, avx2, avx512"
                ),
            }
        }
        match std::env::var("DISTREDGE_FORCE_SCALAR") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Some(KernelArch::Scalar),
            _ => None,
        }
    })
}

/// Programmatic override: 0 = none, else `KernelArch as u8 + 1`.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequent GEMM / GEMV call in this process onto `arch` (clamped
/// to what the hardware supports), or restores automatic selection with
/// `None`.  Test and bench plumbing — takes precedence over the
/// environment.  The choice is read once per GEMM entry call and passed
/// down, so worker threads inside one call never see a torn switch.
pub fn set_kernel_override(arch: Option<KernelArch>) {
    let v = match arch {
        None => 0,
        Some(KernelArch::Scalar) => 1,
        Some(KernelArch::Avx2) => 2,
        Some(KernelArch::Avx512) => 3,
    };
    OVERRIDE.store(v, Ordering::SeqCst);
}

/// The micro-kernel arm GEMM calls will run right now: the programmatic
/// override if set, else the environment request, else full hardware
/// capability — always clamped to what the hardware can execute.
pub fn kernel_arch() -> KernelArch {
    let requested = match OVERRIDE.load(Ordering::SeqCst) {
        1 => Some(KernelArch::Scalar),
        2 => Some(KernelArch::Avx2),
        3 => Some(KernelArch::Avx512),
        _ => env_request(),
    };
    match requested {
        Some(arch) => arch.min(detected()),
        None => detected(),
    }
}

/// One int8 micro-kernel implementation arm, ordered by capability.
///
/// The int8 GEMM accumulates in `i32`, so every arm computes the identical
/// integer sum — bit-exactness across arms holds by construction, unlike
/// the f32 family where the op sequence is pinned by contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QKernelArch {
    /// Portable Rust loop — always available, the dispatch floor.
    Scalar,
    /// 256-bit `std::arch` kernel (x86-64 with AVX2), exact 32-bit lane
    /// multiplies.
    Avx2,
    /// 512-bit AVX-512 VNNI kernel (`vpdpbusd` u8×i8→i32 dot product).
    Vnni,
}

impl QKernelArch {
    /// Short lowercase label (`"scalar"`, `"avx2"`, `"vnni"`) for benches
    /// and logs.
    pub fn label(self) -> &'static str {
        match self {
            QKernelArch::Scalar => "scalar",
            QKernelArch::Avx2 => "avx2",
            QKernelArch::Vnni => "vnni",
        }
    }
}

/// What the hardware supports for int8, detected once per process.
fn q_detected() -> QKernelArch {
    static DETECTED: OnceLock<QKernelArch> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                return QKernelArch::Vnni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return QKernelArch::Avx2;
            }
        }
        QKernelArch::Scalar
    })
}

/// The environment's standing int8 request, read once per process.
/// `DISTREDGE_FORCE_SCALAR` forces the int8 scalar arm too, so one CI
/// switch pins every kernel family.  Unrecognised `DISTREDGE_QKERNEL`
/// values panic, same as `DISTREDGE_KERNEL`.
fn q_env_request() -> Option<QKernelArch> {
    static ENV: OnceLock<Option<QKernelArch>> = OnceLock::new();
    *ENV.get_or_init(|| {
        if let Ok(v) = std::env::var("DISTREDGE_QKERNEL") {
            match v.to_ascii_lowercase().as_str() {
                "scalar" => return Some(QKernelArch::Scalar),
                "avx2" => return Some(QKernelArch::Avx2),
                "vnni" => return Some(QKernelArch::Vnni),
                other => panic!(
                    "DISTREDGE_QKERNEL={other:?} is not an int8 kernel arm; \
                     valid names: scalar, avx2, vnni"
                ),
            }
        }
        match std::env::var("DISTREDGE_FORCE_SCALAR") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Some(QKernelArch::Scalar),
            _ => None,
        }
    })
}

/// Programmatic int8 override: 0 = none, else `QKernelArch as u8 + 1`.
static Q_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequent int8 GEMM call in this process onto `arch`
/// (clamped to hardware capability), or restores automatic selection with
/// `None`.  Same semantics as [`set_kernel_override`], independent state.
pub fn set_qkernel_override(arch: Option<QKernelArch>) {
    let v = match arch {
        None => 0,
        Some(QKernelArch::Scalar) => 1,
        Some(QKernelArch::Avx2) => 2,
        Some(QKernelArch::Vnni) => 3,
    };
    Q_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The int8 micro-kernel arm quantized GEMM calls will run right now:
/// programmatic override, else environment request, else full hardware
/// capability — always clamped to what the hardware can execute.
pub fn qkernel_arch() -> QKernelArch {
    let requested = match Q_OVERRIDE.load(Ordering::SeqCst) {
        1 => Some(QKernelArch::Scalar),
        2 => Some(QKernelArch::Avx2),
        3 => Some(QKernelArch::Vnni),
        _ => q_env_request(),
    };
    match requested {
        Some(arch) => arch.min(q_detected()),
        None => q_detected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_clamps_and_restores() {
        // Whatever the hardware, forcing scalar always lands on scalar …
        set_kernel_override(Some(KernelArch::Scalar));
        assert_eq!(kernel_arch(), KernelArch::Scalar);
        // … and a request above capability clamps instead of mis-dispatching.
        set_kernel_override(Some(KernelArch::Avx512));
        assert!(kernel_arch() <= detected());
        set_kernel_override(None);
        assert_eq!(
            kernel_arch(),
            detected().min(env_request().unwrap_or(detected()))
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelArch::Scalar.label(), "scalar");
        assert_eq!(KernelArch::Avx2.label(), "avx2");
        assert_eq!(KernelArch::Avx512.label(), "avx512");
        assert_eq!(QKernelArch::Scalar.label(), "scalar");
        assert_eq!(QKernelArch::Avx2.label(), "avx2");
        assert_eq!(QKernelArch::Vnni.label(), "vnni");
    }

    #[test]
    fn qoverride_clamps_and_restores() {
        set_qkernel_override(Some(QKernelArch::Scalar));
        assert_eq!(qkernel_arch(), QKernelArch::Scalar);
        set_qkernel_override(Some(QKernelArch::Vnni));
        assert!(qkernel_arch() <= q_detected());
        set_qkernel_override(None);
        assert_eq!(
            qkernel_arch(),
            q_detected().min(q_env_request().unwrap_or(q_detected()))
        );
    }
}

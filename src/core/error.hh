/**
 * @file
 * Error reporting for DHDL, following the gem5 fatal/panic distinction:
 * fatal() is a user error (bad design description, illegal parameters);
 * panic() is an internal invariant violation (a bug in this library).
 *
 * Both exception types carry a machine-readable DiagCode so that
 * layers which must not die on a single bad input — the design space
 * explorer above all — can convert a caught exception into a
 * structured diagnostic (see core/diag.hh) instead of a string.
 */

#ifndef DHDL_CORE_ERROR_HH
#define DHDL_CORE_ERROR_HH

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dhdl {

/**
 * Machine-readable classification of an error or warning. Codes are
 * coarse by design: they name the failing subsystem/stage, not the
 * individual message, so that failure statistics can be aggregated
 * over thousands of design points.
 */
enum class DiagCode : uint8_t {
    Ok = 0,
    Unknown,          //!< Exception that carried no DHDL code.
    UserError,        //!< Generic FatalError (malformed design, bad args).
    InternalError,    //!< Generic PanicError (library bug).
    IllegalBinding,   //!< Parameter binding outside the legal space.
    InstantiationFailed,    //!< Inst construction threw.
    AreaEstimationFailed,   //!< Area estimator threw.
    RuntimeEstimationFailed, //!< Runtime estimator threw.
    DeviceCapacityExceeded, //!< Design does not fit the target device.
    TimeBudgetExceeded,     //!< Exploration wall-clock budget hit.
    EvalBudgetExceeded,     //!< Exploration point-count budget hit.
    CheckpointIo,           //!< Checkpoint file unreadable/corrupt.
    CheckpointMismatch,     //!< Checkpoint from a different run refused.
    ShardFailed,            //!< A supervised shard died/hung for good.
    HostApiMisuse,          //!< host::Accelerator called out of contract.
    ParseError,             //!< Malformed `.dhdl` IR text.
    SamplingShortfall,      //!< Legal space yielded fewer points than asked.
    Cancelled,              //!< Run stopped by a cooperative cancel.
    AdmissionRejected,      //!< Serving: request refused by admission control.
    VersionMismatch,        //!< Serving: client/server protocol skew.
    CalibrationCache,       //!< Bad calibration cache entry recomputed.
};

/** Stable short name of a code (used in checkpoints and reports). */
const char* diagCodeName(DiagCode code);

/** Inverse of diagCodeName(); DiagCode::Unknown for unknown names. */
DiagCode diagCodeFromName(const std::string& name);

/** Raised for user-caused errors: malformed designs, illegal bindings. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg,
                        DiagCode code = DiagCode::UserError)
        : std::runtime_error(msg), code_(code) {}

    DiagCode code() const { return code_; }

  private:
    DiagCode code_;
};

/** Raised for internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& msg,
                        DiagCode code = DiagCode::InternalError)
        : std::logic_error(msg), code_(code) {}

    DiagCode code() const { return code_; }

  private:
    DiagCode code_;
};

/** Throw a FatalError with the given message (and optional code). */
[[noreturn]] inline void
fatal(const std::string& msg, DiagCode code = DiagCode::UserError)
{
    throw FatalError(msg, code);
}

/** Throw a PanicError with the given message (and optional code). */
[[noreturn]] inline void
panic(const std::string& msg, DiagCode code = DiagCode::InternalError)
{
    throw PanicError(msg, code);
}

/** Require a user-level condition; throws FatalError when violated. */
inline void
require(bool cond, const std::string& msg,
        DiagCode code = DiagCode::UserError)
{
    if (!cond)
        fatal(msg, code);
}

/**
 * Literal-message overload: the std::string is materialized only on
 * failure, so a passing check costs one branch. The estimators call
 * require()/invariant() millions of times per sweep; the
 * const std::string& overloads would heap-allocate the message on
 * every successful call.
 */
inline void
require(bool cond, const char* msg,
        DiagCode code = DiagCode::UserError)
{
    if (!cond) [[unlikely]]
        fatal(std::string(msg), code);
}

/** Assert an internal invariant; throws PanicError when violated. */
inline void
invariant(bool cond, const std::string& msg)
{
    if (!cond)
        panic(msg);
}

/** Literal-message overload (see require(bool, const char*)). */
inline void
invariant(bool cond, const char* msg)
{
    if (!cond) [[unlikely]]
        panic(std::string(msg));
}

} // namespace dhdl

#endif // DHDL_CORE_ERROR_HH

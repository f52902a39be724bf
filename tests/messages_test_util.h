#ifndef CASPER_TESTS_MESSAGES_TEST_UTIL_H_
#define CASPER_TESTS_MESSAGES_TEST_UTIL_H_

#include <string_view>

#include "src/casper/messages.h"

/// Helpers shared by the wire-codec tests.

namespace casper::testing_util {

/// SnapshotMsg has no owning decoder: it is the view, materialized.
inline Result<SnapshotMsg> DecodeSnapshotMsg(std::string_view bytes) {
  CASPER_ASSIGN_OR_RETURN(view, DecodeSnapshotView(bytes));
  return view.Materialize();
}

}  // namespace casper::testing_util

#endif  // CASPER_TESTS_MESSAGES_TEST_UTIL_H_
